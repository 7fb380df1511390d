import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse

from trigkrylov.linop import (
    DenseOperator,
    KroneckerSum3D,
    SparseCSR,
    dirichlet_laplacian_1d,
)
from trigkrylov.krylov import (
    CHUNK,
    COARSE_FRACTIONS,
    KrylovProcess,
    ResidualCurve,
    StepSearchStagnation,
    StorePool,
    coarse_residual_check,
    confirm_admissible,
    find_largest_admissible_step,
    krylov_build,
    store_pool,
)
from trigkrylov.problems import (
    TransportProblemSpec,
    build_transport,
    build_wave3d,
    isotropic_wave_spec,
)
from trigkrylov.smallfun import (
    ScalarFunKind,
    SpectralCache,
    branch_coefficients,
    phi,
    psi,
    sigma,
)


def _spd_operator(rng, n, shift=2.0):
    a = rng.standard_normal((n, n))
    return DenseOperator(a @ a.T / n + shift * np.eye(n), is_symmetric=True)


def test_identity_happy_breakdown():
    d = krylov_build(DenseOperator(np.eye(6)), np.ones(6), 3)
    assert d.m == 1 and d.breakdown and d.h_next == 0.0
    np.testing.assert_allclose(d.H_m, [[1.0]], atol=1e-14)


def test_full_dimension_recovers_spectrum():
    op = DenseOperator(np.diag([1.0, 2.0, 3.0, 4.0]), is_symmetric=True)
    d = krylov_build(op, np.full(4, 0.5), 4)
    eigs = np.sort(np.linalg.eigvalsh(d.H_m))
    np.testing.assert_allclose(eigs, [1, 2, 3, 4], atol=1e-12)


@pytest.mark.parametrize("symmetric", [True, False])
def test_decomposition_identity(symmetric):
    rng = np.random.default_rng(1)
    n, m = 50, 10
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + 2 * np.eye(n)
    if not symmetric:
        mat = mat + 0.5 * (rng.standard_normal((n, n)) - rng.standard_normal((n, n)).T)
    op = DenseOperator(mat, is_symmetric=symmetric)
    d = krylov_build(op, rng.standard_normal(n), m)
    lhs = mat @ d.V_m
    rhs = d.V_m @ d.H_m
    rhs[:, -1] += d.h_next * d.V[:, -1]
    norm_a = np.linalg.norm(mat, 2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * norm_a * m
    assert d.mode == ("lanczos" if symmetric else "arnoldi")


def test_reorthogonalized_basis_orthonormal():
    rng = np.random.default_rng(2)
    op = _spd_operator(rng, 60)
    d = krylov_build(op, rng.standard_normal(60), 25, reorth=True)
    v = d.V
    assert np.linalg.norm(v.T @ v - np.eye(v.shape[1])) <= 1e-8


def test_matvec_budget():
    rng = np.random.default_rng(3)
    op = _spd_operator(rng, 30)
    krylov_build(op, rng.standard_normal(30), 12)
    assert op.matvec_count == 12


def test_zero_start_vector_rejected():
    with pytest.raises(ValueError, match="zero starting vector"):
        krylov_build(DenseOperator(np.eye(4)), np.zeros(4), 2)


def _scalar_sigma_curve(lam=1.0, h_next=1.0, beta=1.0):
    cache = SpectralCache.from_tridiagonal(np.array([lam]), np.array([]), beta=beta)

    class D:
        pass

    d = D()
    d.h_next = h_next
    d.spectral_cache = lambda: cache
    return ResidualCurve(d, ScalarFunKind.SIGMA)


def test_residual_curve_closed_form_and_zero_time():
    curve = _scalar_sigma_curve()
    assert curve.value(0.0) == 0.0
    for t in (0.4, 1.0, 2.5):
        assert curve.value(t) == pytest.approx(abs(np.sin(t)), rel=1e-13)


@pytest.mark.parametrize("kind", [ScalarFunKind.PSI, ScalarFunKind.SIGMA,
                                  ScalarFunKind.PHI])
def test_arnoldi_curve_at_zero_and_tiny_times(kind):
    ivp = build_transport(TransportProblemSpec(64))
    d = krylov_build(ivp.op, ivp.v, 8)
    curve = ResidualCurve(d, kind)
    assert not curve.cache.symmetric and curve.cache.h_mat is None  # eigenbasis
    assert curve.value(0.0) == 0.0
    t = 1e-9
    value = curve.value(t)
    # The exact e_m^T u(t) is O(t^(m+1)); the computed one is at round-off.
    assert value <= 1e-14 * d.h_next * t * d.beta


def test_breakdown_residual_is_zero():
    d = krylov_build(DenseOperator(np.eye(5)), np.ones(5), 3)
    curve = ResidualCurve(d, ScalarFunKind.SIGMA)
    assert np.all(curve.values(np.linspace(0.1, 3.0, 7)) == 0.0)


@pytest.mark.parametrize("kind,n,m", [(ScalarFunKind.SIGMA, 40, 8),
                                      (ScalarFunKind.PSI, 40, 8)])
def test_residual_matches_finite_difference_oracle(kind, n, m):
    # Spectrum in [100, 400] keeps the m=8 residual far above the O(h^2)
    # finite-difference noise so the 1e-6 relative comparison is meaningful.
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(100.0, 400.0, n)
    op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
    w = rng.standard_normal(n)
    d = krylov_build(op, w, m)
    curve = ResidualCurve(d, kind)
    a_mat = op.matrix
    cache = d.spectral_cache()
    t, h = 1.0, 1e-5

    def y_at(s):
        return d.V_m @ branch_coefficients(cache, kind, s)[0, 0]

    ypp = (y_at(t - h) - 2 * y_at(t) + y_at(t + h)) / h**2
    forcing = w if kind == ScalarFunKind.PSI else 0.0
    resid = -a_mat @ y_at(t) + forcing - ypp
    assert curve.value(t) > 1e-3  # sanity: genuinely unconverged instance
    assert np.linalg.norm(resid) == pytest.approx(curve.value(t), rel=1e-6)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("kind", [ScalarFunKind.PSI, ScalarFunKind.SIGMA,
                                  ScalarFunKind.PHI])
def test_residual_identity_analytic(symmetric, kind):
    """Formula residual -h (e_m^T u) v_{m+1} vs the explicit IVP residual."""
    rng = np.random.default_rng(17)
    n, m = 40, 8
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + 2 * np.eye(n)
    if not symmetric:
        mat = mat + 0.4 * (rng.standard_normal((n, n)) - rng.standard_normal((n, n)).T)
    op = DenseOperator(mat, is_symmetric=symmetric)
    w = rng.standard_normal(n)
    beta = np.linalg.norm(w)
    d = krylov_build(op, w, m)
    cache = d.spectral_cache()
    t = 0.9
    u = branch_coefficients(cache, kind, t)[0, 0]
    e1 = np.zeros(m)
    e1[0] = beta
    if kind == ScalarFunKind.PHI:
        updot = -d.H_m @ u + e1
        explicit = -mat @ (d.V_m @ u) + w - d.V_m @ updot
    else:
        updd = -d.H_m @ u + (e1 if kind == ScalarFunKind.PSI else 0.0)
        forcing = w if kind == ScalarFunKind.PSI else 0.0
        explicit = -mat @ (d.V_m @ u) + forcing - d.V_m @ updd
    formula = -d.h_next * u[-1] * d.V[:, -1]
    scale = max(np.linalg.norm(formula), 1e-30)
    assert np.linalg.norm(explicit - formula) <= 1e-10 * max(scale, np.linalg.norm(w))
    # Galerkin orthogonality of the residual
    gal = np.linalg.norm(d.V_m.T @ explicit)
    bound = 1e-8 * (np.linalg.norm(mat, 2) * np.linalg.norm(d.V_m @ u) + beta)
    assert gal <= bound


def test_coarse_check_closed_forms():
    curve = _scalar_sigma_curve()
    assert coarse_residual_check(curve, np.pi / 2, 1.0)
    assert not coarse_residual_check(curve, np.pi / 2, 0.5)
    broken = ResidualCurve(krylov_build(DenseOperator(np.eye(4)), np.ones(4), 2),
                           ScalarFunKind.SIGMA)
    assert coarse_residual_check(broken, 1.0, 0.0)


def test_find_step_zero_residual_returns_horizon():
    broken = ResidualCurve(krylov_build(DenseOperator(np.eye(4)), np.ones(4), 2),
                           ScalarFunKind.SIGMA)
    assert find_largest_admissible_step(broken, 2.0, 1e-12) == 2.0


def test_find_step_sine_halving_example():
    # |sin s| with t=100, tol=0.5: base step 1 fails, 0.5 admits, first
    # violation at s=1.0, so delta = 0.5.
    curve = _scalar_sigma_curve()
    assert find_largest_admissible_step(curve, 100.0, 0.5) == pytest.approx(0.5)


def test_find_step_monotone_property():
    # phi-kind scalar curve is monotone: residual(delta) <= tol < residual(delta + dt)
    cache = SpectralCache.from_tridiagonal(np.array([2.0]), np.array([]), beta=1.0)

    class D:
        h_next = 0.7
        spectral_cache = staticmethod(lambda: cache)

    curve = ResidualCurve(D(), ScalarFunKind.PHI)
    t, tol = 3.0, 0.1
    delta = find_largest_admissible_step(curve, t, tol)
    k = 0
    while curve.value(t / (2**k * 100)) > tol:
        k += 1
    dt = t / (2**k * 100)
    assert curve.value(delta) <= tol
    assert curve.value(delta + dt) > tol


def test_find_step_ties_are_admissible():
    curve = _scalar_sigma_curve()
    tol = abs(np.sin(0.02))  # exact tie at the second grid point of dt=0.01
    delta = find_largest_admissible_step(curve, 1.0, tol)
    assert delta >= 0.02


def test_find_step_treats_nan_samples_as_violations():
    # Residual 0 up to s = 0.505 and NaN (an overflowed evaluation) after:
    # the scan at dt = 0.01 must stop at 0.5, as the coarse and fine checks
    # (max <= tol) would reject any step past it.
    class NanPastCurve:
        def values(self, ts):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            return np.where(ts > 0.505, np.nan, 0.0)

        def value(self, t):
            return float(self.values(t)[0])

    curve = NanPastCurve()
    delta = find_largest_admissible_step(curve, 1.0, 0.1)
    assert delta == pytest.approx(0.5)
    assert coarse_residual_check(curve, delta, 0.1)
    assert not coarse_residual_check(curve, 1.0, 0.1)


def test_step_search_stagnation():
    curve = _scalar_sigma_curve(lam=1.0, h_next=1.0, beta=1.0)
    with pytest.raises(StepSearchStagnation):
        find_largest_admissible_step(curve, 1.0, 1e-20)


def test_confirm_admissible_catches_aliased_spike():
    # Single-frequency curve whose six coarse samples all alias near zeros
    # of 1 - cos: residual(s) = |sin(w s)| with w chosen so t/6 lands on pi.
    w = 6 * np.pi  # samples at t*k/6 with t=1 give sin(pi k) = 0 exactly
    cache = SpectralCache.from_tridiagonal(np.array([w * w]), np.array([]), beta=1.0)

    class D:
        h_next = 1.0
        spectral_cache = staticmethod(lambda: cache)

    curve = ResidualCurve(D(), ScalarFunKind.SIGMA)
    # values at coarse samples are ~0 but the curve peaks at 1/w in between
    assert coarse_residual_check(curve, 1.0, 1e-6)
    assert not confirm_admissible(curve, 1.0, 1e-6)


def test_exactness_at_full_dimension():
    rng = np.random.default_rng(30)
    n = 16
    op = _spd_operator(rng, n)
    from trigkrylov.integrators import SecondOrderIVP, SolverConfig, rt_sequential
    from trigkrylov.problems import exact_ivp_solution

    ivp = SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                         rng.standard_normal(n), 1.5)
    report = rt_sequential(ivp, SolverConfig(tol=1e-8, m_max=n))
    y_ref, _ = exact_ivp_solution(ivp, 1.5)
    assert np.linalg.norm(report.y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)


def test_process_mode_and_argument_guards():
    op = DenseOperator(np.eye(6))
    with pytest.raises(ValueError, match="unknown mode"):
        KrylovProcess(op, np.ones(6), 6, mode="qr")
    with pytest.raises(ValueError, match="stored basis"):
        KrylovProcess(op, np.ones(6), 6, mode="lanczos3", reorth=True)
    proc = KrylovProcess(op, np.ones(6), 6, mode="lanczos3")
    proc.step()
    with pytest.raises(ValueError, match="basis"):
        proc.snapshot().V_m
    with pytest.raises(ValueError):
        coarse_residual_check(_scalar_sigma_curve(), 0.0, 1.0)
    with pytest.raises(ValueError):
        find_largest_admissible_step(_scalar_sigma_curve(), 0.0, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        krylov_build(op, np.ones(6), 7)


@pytest.mark.parametrize("mode", ["lanczos", "lanczos3"])
def test_lanczos_modes_reject_an_operator_not_flagged_symmetric(mode):
    # the three-term recurrence would run on this upper-triangular matrix
    # without a word, returning alphas 9.5, 5.5 for its first two steps
    op = DenseOperator(np.triu(np.ones((8, 8))) + 5.0 * np.eye(8))
    assert not op.is_symmetric
    with pytest.raises(ValueError, match="symmetric"):
        KrylovProcess(op, np.ones(8), 8, mode=mode)
    assert op.matvec_count == 0


def test_breakdown_step_refused_after_flag():
    proc = KrylovProcess(DenseOperator(np.eye(4)), np.ones(4), 4)
    proc.step()
    assert proc.breakdown
    with pytest.raises(RuntimeError, match="breakdown"):
        proc.step()


@pytest.mark.parametrize("symmetric", [True, False])
def test_basis_views_of_the_store_survive_extension(symmetric):
    rng = np.random.default_rng(5)
    n = 40
    mat = rng.standard_normal((n, n))
    mat = mat @ mat.T / n + 2 * np.eye(n) if symmetric else mat
    proc = KrylovProcess(DenseOperator(mat, is_symmetric=symmetric),
                         rng.standard_normal(n), 12)
    for _ in range(4):
        proc.step()
    early = proc.snapshot()
    assert early.V_m.shape == (n, 4) and early.V.shape == (n, 5)
    assert np.shares_memory(early.V_m, proc._store)
    assert np.shares_memory(early.V, proc._store)
    assert not early.V_m.flags.writeable and not early.V.flags.writeable
    v_m, v, h_m = early.V_m.copy(), early.V.copy(), early.H_m.copy()
    for _ in range(8):
        proc.step()
    assert np.array_equal(early.V_m, v_m) and np.array_equal(early.V, v)
    assert np.array_equal(early.H_m, h_m)
    late = proc.snapshot()
    assert np.array_equal(late.V_m[:, :4], v_m)
    assert np.array_equal(late.H_m[:4, :4], h_m)


def test_newest_reads_the_basis_in_every_mode():
    # the three-term mode keeps three vectors, but its newest one has the
    # bits of the stored-basis Lanczos row of the same step
    rng = np.random.default_rng(7)
    op = _spd_operator(rng, 20)
    w = rng.standard_normal(20)
    stored = KrylovProcess(op, w, 8, mode="lanczos")
    window = KrylovProcess(op, w, 8, mode="lanczos3")
    for m in range(8):
        assert np.array_equal(stored.newest, stored.snapshot().V[:, m])
        assert np.array_equal(window.newest, stored.newest)
        assert not window.newest.flags.writeable
        stored.step()
        window.step()
    for mode in ("arnoldi", "lanczos", "lanczos3"):
        proc = KrylovProcess(DenseOperator(np.eye(4)), np.ones(4), 4, mode=mode)
        proc.step()
        assert proc.breakdown and not np.any(proc.newest), mode


def test_three_term_snapshot_releases_the_ring():
    # two-pass keeps pass one's converged curve through pass two, which
    # runs a process of its own; the snapshot must not keep pass one's
    # three vectors alive
    rng = np.random.default_rng(8)
    proc = KrylovProcess(_spd_operator(rng, 20), rng.standard_normal(20), 8,
                         mode="lanczos3")
    for _ in range(5):
        proc.step()
    ring = weakref.ref(proc._store)
    snap = proc.snapshot()
    del proc
    gc.collect()
    assert ring() is None
    assert snap.m == 5


@pytest.mark.parametrize("mode", ["arnoldi", "lanczos", "lanczos3"])
def test_step_past_cap_raises(mode):
    rng = np.random.default_rng(6)
    op = _spd_operator(rng, 20)
    proc = KrylovProcess(op, rng.standard_normal(20), 3, mode=mode)
    for _ in range(3):
        proc.step()
    count = op.matvec_count
    with pytest.raises(RuntimeError, match="m_max"):
        proc.step()
    assert op.matvec_count == count and proc.m == 3
    # the cap is also bounded by the dimension
    small = KrylovProcess(op, rng.standard_normal(20), 50)
    assert small.m_max == 20


def test_prop_bounds_dominate_measured_curve():
    from trigkrylov.bounds import bound_input_from_decompositions, bound_prop22, bound_prop23

    rng = np.random.default_rng(19)
    n, m = 40, 7
    op = _spd_operator(rng, n)
    w_psi = rng.standard_normal(n)
    w_sigma = rng.standard_normal(n)
    d_psi = krylov_build(op, w_psi, m)
    d_sigma = krylov_build(op, w_sigma, m)
    c_psi = ResidualCurve(d_psi, ScalarFunKind.PSI)
    c_sigma = ResidualCurve(d_sigma, ScalarFunKind.SIGMA)
    for t in (0.2, 0.8, 1.6, 4.0):
        measured = c_psi.value(t) + c_sigma.value(t)
        bi = bound_input_from_decompositions(d_psi, d_sigma, t, "spd")
        assert measured <= bound_prop22(bi) * (1 + 1e-9)
        simple, tight = bound_prop23(bi)
        assert measured <= tight * (1 + 1e-9)
        assert measured <= simple * (1 + 1e-9)


@pytest.mark.parametrize("mode", ["lanczos", "lanczos3", "arnoldi"])
def test_krylov_steps_allocate_no_vectors(mode):
    op = build_wave3d(isotropic_wave_spec(48)).op
    proc = KrylovProcess(op, np.random.default_rng(4).standard_normal(op.dim), 12,
                         mode=mode)
    proc.step()  # the operator's workspace is allocated by the first apply
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            proc.step()
        rise = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert rise < 8 * op.dim, f"{rise / (8 * op.dim):.2f} n-vectors"


def test_csr_arnoldi_steps_allocate_no_vectors():
    # the transport operator is a SparseCSR; at n = 4096 the fixed Python
    # overhead of a step (about 1.5 kB) is 0.05 n-vectors, where at n = 512
    # it alone would be 0.38
    op = build_transport(TransportProblemSpec(4096)).op
    proc = KrylovProcess(op, np.random.default_rng(5).standard_normal(op.dim), 12,
                         mode="arnoldi")
    proc.step()
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            proc.step()
        rise = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert rise <= 0.1 * 8 * op.dim, f"{rise / (8 * op.dim):.2f} n-vectors"


def _whole_vector_lanczos(op, w, steps):
    """The Lanczos recurrence in whole-vector passes: v = (A v_m - beta
    v_{m-1} - alpha v_m) / h, each product formed before its subtraction."""
    basis, alphas, offdiags = [w / np.linalg.norm(w)], [], []
    for m in range(steps):
        r = op.apply(basis[m])
        if m > 0:
            r = r - offdiags[-1] * basis[m - 1]
        alphas.append(float(r @ basis[m]))
        r = r - alphas[-1] * basis[m]
        offdiags.append(float(np.linalg.norm(r)))
        basis.append(r / offdiags[-1])
    return np.array(basis), alphas, offdiags


def _lanczos_operators():
    # below one chunk, a multiple of the chunk and a multiple plus 5
    for n in (1000, 2 * CHUNK, 2 * CHUNK + 5):
        diag = np.random.default_rng(n).uniform(1.0, 2.0, n)
        yield SparseCSR(scipy.sparse.diags(diag, format="csr"), is_symmetric=True)
    # the fused plane sweep: one x line, 64 x 17 lines in one plane, plane
    # groups, and tail grids of one group
    for shape in ((64, 1, 1), (64, 17, 1), (16, 12, 10), (64, 64, 16), (20, 20, 20),
                  (17, 17, 17)):
        yield KroneckerSum3D(*(dirichlet_laplacian_1d(n) for n in shape))


@pytest.mark.parametrize("mode", ["lanczos", "lanczos3"])
def test_lanczos_steps_have_the_bits_of_the_whole_vector_recurrence(mode):
    for op in _lanczos_operators():
        w = np.random.default_rng(op.dim).standard_normal(op.dim)
        basis, alphas, offdiags = _whole_vector_lanczos(op, w, 6)
        proc = KrylovProcess(op, w, 6, mode=mode)
        snaps = []
        for m in range(6):
            proc.step()
            assert np.array_equal(proc.newest, basis[m + 1]), (op.dim, m)
            if mode == "lanczos":
                snaps.append(proc.snapshot())
        assert proc.alphas == alphas and proc.offdiags == offdiags
        # each snapshot, read once the run ends, holds the recurrence's rows
        for m, snap in enumerate(snaps):
            assert np.array_equal(snap.V.T, basis[:m + 2]), (op.dim, m)


def test_a_snapshot_reads_the_newest_row_divided_once():
    # the newest row is divided by its h once, whether the snapshot's V is
    # read before the next steps or after them
    op = KroneckerSum3D(*(dirichlet_laplacian_1d(n) for n in (16, 12, 10)))
    w = np.random.default_rng(3).standard_normal(op.dim)
    basis, _, _ = _whole_vector_lanczos(op, w, 4)
    for read_first in (False, True):
        proc = KrylovProcess(op, w, 4)
        proc.step()
        proc.step()
        snap = proc.snapshot()
        if read_first:
            assert np.array_equal(snap.V.T, basis[:3])
        proc.step()
        proc.step()
        assert np.array_equal(snap.V.T, basis[:3])
        assert np.array_equal(proc.snapshot().V.T, basis)


def test_a_pool_hands_out_a_store_again_once_nothing_refers_to_it():
    pool = StorePool()
    a = pool.take(3, 10)
    view = a[1:].T
    del a
    b = pool.take(3, 10)  # the first is still read through a view
    assert not np.shares_memory(b, view)
    second = weakref.ref(b)
    del b
    assert pool.take(3, 10) is second()  # the second is free
    del view
    c = pool.take(4, 10)  # a miss drops both free stores
    assert len(pool._stores) == 1 and pool._stores[0] is c
    assert second() is None


def test_processes_in_a_pool_reuse_a_dropped_basis_and_keep_a_live_one():
    rng = np.random.default_rng(9)
    op = _spd_operator(rng, 30)
    w = rng.standard_normal(30)
    plain = krylov_build(op, w, 6)
    with store_pool():
        first = KrylovProcess(op, rng.standard_normal(30), 6)
        for _ in range(6):
            first.step()
        kept = first.snapshot()
        before = kept.V.tobytes()
        del first
        second = KrylovProcess(op, w, 6)
        assert not np.shares_memory(second._store, kept.V)
        for _ in range(6):
            second.step()
        assert kept.V.tobytes() == before  # a snapshot keeps its store
        store = weakref.ref(kept._store)
        del kept
        third = KrylovProcess(op, w, 6)
        assert third._store is store()  # the dropped basis is handed out again
        for _ in range(6):
            third.step()
        assert np.array_equal(third.snapshot().V, plain.V)  # the bits of a new store
        assert np.array_equal(second.snapshot().V, plain.V)
