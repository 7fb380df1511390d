import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import trigkrylov.integrators as integ
from trigkrylov import krylov
from trigkrylov.integrators import (
    SOLVERS,
    SecondOrderIVP,
    SolverConfig,
    gautschi,
    rt_first_order_block,
    rt_sequential,
    rt_simultaneous,
    solve,
    two_pass_lanczos,
)
from trigkrylov.krylov import ResidualCurve, krylov_build
from trigkrylov.linop import DenseOperator
from trigkrylov.problems import (
    anisotropic_wave_spec,
    build_wave3d,
    exact_ivp_solution,
    isotropic_wave_spec,
)
from trigkrylov.smallfun import (
    ScalarFunKind,
    SpectralCache,
    psi,
    sigma,
)


def _random_spd_ivp(rng, n=24, t_final=2.0, with_g=True):
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + 2 * np.eye(n)
    op = DenseOperator(mat, is_symmetric=True)
    g = rng.standard_normal(n) if with_g else None
    return SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n), g,
                          t_final)


def _rel_err(y, ref):
    return np.linalg.norm(y - ref) / np.linalg.norm(ref)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=math.inf)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-6, m_max=1)


def test_ivp_validation():
    op = DenseOperator(np.eye(3))
    with pytest.raises(ValueError):
        SecondOrderIVP(op, np.zeros(2), np.zeros(3), None, 1.0)
    for t_final in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="t_final must be finite and positive"):
            SecondOrderIVP(op, np.zeros(3), np.zeros(3), None, t_final)


@pytest.mark.parametrize("field", ["u", "v", "g"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ivp_rejects_non_finite_data(field, bad):
    data = {"u": np.ones(3), "v": np.ones(3), "g": np.ones(3)}
    data[field][1] = bad
    with pytest.raises(ValueError, match=f"{field} has non-finite entries"):
        SecondOrderIVP(DenseOperator(np.eye(3)), data["u"], data["v"], data["g"], 1.0)


def test_unknown_solver_name():
    ivp = _random_spd_ivp(np.random.default_rng(0))
    with pytest.raises(ValueError, match="unknown solver"):
        solve(ivp, SolverConfig(tol=1e-6), "nope")


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_stationary_point(name):
    # g = A u and v = 0: nothing moves, no restarts needed.
    rng = np.random.default_rng(1)
    n = 12
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + np.eye(n)
    op = DenseOperator(mat, is_symmetric=True)
    u = rng.standard_normal(n)
    ivp = SecondOrderIVP(op, u, np.zeros(n), mat @ u, 1.0)
    report = solve(ivp, SolverConfig(tol=1e-8), name)
    np.testing.assert_allclose(report.y, u, atol=1e-12)
    assert all(e.residual <= 1e-12 for e in report.residual_log)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_small_instance_accuracy_and_matvec_accounting(name):
    rng = np.random.default_rng(2)
    ivp = _random_spd_ivp(rng)
    y_ref, v_ref = exact_ivp_solution(ivp, ivp.t_final)
    before = ivp.op.matvec_count
    report = solve(ivp, SolverConfig(tol=1e-9, m_max=14), name)
    assert report.matvecs == ivp.op.matvec_count - before
    assert _rel_err(report.y, y_ref) <= 1e-6
    if not report.velocity_is_averaged:
        assert _rel_err(report.v_out, v_ref) <= 1e-5
    assert report.solver == name


@pytest.mark.parametrize("name", ["rt-sim", "rt-seq", "first-order"])
def test_nonsymmetric_instance_accuracy(name):
    rng = np.random.default_rng(3)
    n = 20
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + 2 * np.eye(n)
    mat += 0.4 * (rng.standard_normal((n, n)) - rng.standard_normal((n, n)).T)
    op = DenseOperator(mat, is_symmetric=False)
    ivp = SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                         rng.standard_normal(n), 1.2)
    report = solve(ivp, SolverConfig(tol=1e-10, m_max=12), name)
    y_ref, _ = exact_ivp_solution(ivp, 1.2)
    assert _rel_err(report.y, y_ref) <= 1e-8


def test_sequential_eigenvector_single_step():
    # v = 0 and g - A u an eigenvector: one cycle, m = 1, exact.
    rng = np.random.default_rng(4)
    n = 10
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(1.0, 5.0, n)
    mat = (q * lam) @ q.T
    op = DenseOperator(mat, is_symmetric=True)
    u = rng.standard_normal(n)
    g = mat @ u + 2.0 * q[:, 3]
    ivp = SecondOrderIVP(op, u, np.zeros(n), g, 1.0)
    report = rt_sequential(ivp, SolverConfig(tol=1e-8))
    y_ref, _ = exact_ivp_solution(ivp, 1.0)
    assert report.steps == 1
    assert report.matvecs == 2  # one to form g - A u, one Lanczos step
    assert _rel_err(report.y, y_ref) <= 1e-12


def test_first_order_stationary():
    rng = np.random.default_rng(5)
    n = 8
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + np.eye(n)
    op = DenseOperator(mat, is_symmetric=True)
    u = rng.standard_normal(n)
    ivp = SecondOrderIVP(op, u, np.zeros(n), mat @ u, 3.0)
    report = rt_first_order_block(ivp, SolverConfig(tol=1e-10))
    np.testing.assert_allclose(report.y, u, atol=1e-13)
    np.testing.assert_allclose(report.v_out, np.zeros(n), atol=1e-13)


def test_gautschi_eigenvector_cosine():
    rng = np.random.default_rng(6)
    n = 12
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(2.0, 9.0, n)
    mat = (q * lam) @ q.T
    op = DenseOperator(mat, is_symmetric=True)
    u = q[:, 5]
    ivp = SecondOrderIVP(op, u, np.zeros(n), None, 4.0)
    report = gautschi(ivp, SolverConfig(tol=1e-10, m_max=8))
    ref = np.cos(np.sqrt(lam[5]) * 4.0) * u
    assert np.linalg.norm(report.y - ref) <= 1e-10
    assert report.velocity_is_averaged


def test_gautschi_dense_stepping_is_exact():
    # With exact matrix functions the one-step scheme reproduces the exact
    # trajectory for constant forcing at every step.
    rng = np.random.default_rng(7)
    n = 14
    ivp = _random_spd_ivp(rng, n=n, t_final=3.0)
    mat = ivp.op.matrix
    lam, q = np.linalg.eigh(mat)

    def act(fvals, vec):
        return q @ (fvals * (q.T @ vec))

    steps = 6
    delta = ivp.t_final / steps
    d2 = delta * delta
    y = ivp.u.copy()
    v = act(sigma(d2 * lam), ivp.v)
    half_psi = lambda vec: 0.5 * delta * act(psi(d2 * lam), vec)
    x = half_psi(ivp.g - mat @ y)
    for k in range(steps):
        v_half = v + x
        y = y + delta * v_half
        y_exact, _ = exact_ivp_solution(ivp, (k + 1) * delta)
        assert np.linalg.norm(y - y_exact) <= 1e-10 * max(np.linalg.norm(y_exact), 1)
        x = half_psi(ivp.g - mat @ y)
        v = v_half + x


def test_gautschi_two_step_identity():
    # y(t+d) - 2 y(t) + y(t-d) = d^2 psi(d^2 A)(-A y(t) + g) with exact functions.
    rng = np.random.default_rng(8)
    ivp = _random_spd_ivp(rng, n=10, t_final=2.0)
    mat = ivp.op.matrix
    lam, q = np.linalg.eigh(mat)
    t, d = 0.9, 0.35
    ys = {s: exact_ivp_solution(ivp, s)[0] for s in (t - d, t, t + d)}
    lhs = ys[t + d] - 2 * ys[t] + ys[t - d]
    w = ivp.g - mat @ ys[t]
    rhs = d * d * (q @ (psi(d * d * lam) * (q.T @ w)))
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(np.linalg.norm(rhs), 1)


def test_restart_consistency_semigroup():
    # Splitting [0, t] at any delta and restarting with exact functions
    # reproduces the unsplit solution.
    rng = np.random.default_rng(9)
    ivp = _random_spd_ivp(rng, n=12, t_final=2.4)
    for delta in (0.3, 1.1, 2.0):
        y_mid, v_mid = exact_ivp_solution(ivp, delta)
        ivp2 = SecondOrderIVP(ivp.op, y_mid, v_mid, ivp.g, ivp.t_final - delta)
        y_two, v_two = exact_ivp_solution(ivp2, ivp.t_final - delta)
        y_one, v_one = exact_ivp_solution(ivp, ivp.t_final)
        assert np.linalg.norm(y_two - y_one) <= 1e-10 * np.linalg.norm(y_one)
        assert np.linalg.norm(v_two - v_one) <= 1e-10 * max(np.linalg.norm(v_one), 1)


def test_stopping_soundness_per_cycle():
    # Explicitly re-run the sequential cycle structure and verify the true
    # (dense, analytic) residual at each accepted endpoint.
    rng = np.random.default_rng(10)
    n, tol = 30, 1e-6
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(30.0, 900.0, n)
    mat = (q * lam) @ q.T
    op = DenseOperator(mat, is_symmetric=True)
    ivp = SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                         rng.standard_normal(n), 2.0)
    y = ivp.u.copy()
    vel = ivp.v.copy()
    t_done, cycles = 0.0, 0
    while t_done < ivp.t_final * (1 - 1e-14) and cycles < 50:
        t_rem = ivp.t_final - t_done
        gt = ivp.g - mat @ y
        bp, bs = np.linalg.norm(gt), np.linalg.norm(vel)
        thp, ths = integ._tolerance_split(tol, bp, bs)
        (c_psi,), delta = integ._grow_admissible(
            op, [(gt, ScalarFunKind.PSI)], t_rem, thp, 10)
        (c_sig,), delta_s = integ._grow_admissible(
            op, [(vel, ScalarFunKind.SIGMA)], delta, ths, 10)
        d_psi, d_sig = c_psi.decomposition, c_sig.decomposition
        delta = min(delta, delta_s)
        # true residual of the cycle approximation at the accepted endpoint
        caches = (c_psi.cache, c_sig.cache)
        u_psi = 0.5 * delta**2 * caches[0].fun_e1(ScalarFunKind.PSI, delta**2)
        u_sig = delta * caches[1].fun_e1(ScalarFunKind.SIGMA, delta**2)
        y_m = d_psi.V_m @ u_psi + d_sig.V_m @ u_sig
        e1p = np.zeros(d_psi.m); e1p[0] = bp
        e1s = np.zeros(d_sig.m); e1s[0] = bs
        ypp = (d_psi.V_m @ (-d_psi.H_m @ u_psi + e1p)
               + d_sig.V_m @ (-d_sig.H_m @ u_sig))
        true_res = np.linalg.norm(-mat @ y_m + gt - ypp)
        assert true_res <= 1.01 * tol * (bp + bs)
        y = y + y_m
        vel = (d_psi.V_m @ (delta * caches[0].fun_e1(ScalarFunKind.SIGMA, delta**2))
               + d_sig.V_m @ caches[1].fun_e1(ScalarFunKind.COS, delta**2))
        t_done += delta
        cycles += 1
    assert cycles > 1  # exercised at least one real restart


def test_two_pass_requires_symmetric():
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((8, 8))
    op = DenseOperator(mat + 8 * np.eye(8), is_symmetric=False)
    ivp = SecondOrderIVP(op, np.ones(8), np.ones(8), None, 1.0)
    with pytest.raises(ValueError, match="operator not symmetric"):
        two_pass_lanczos(ivp, SolverConfig(tol=1e-6))


def test_two_pass_matches_full_storage_lanczos(monkeypatch):
    monkeypatch.setattr(integ, "TWO_PASS_CHECK_INTERVAL", 10)
    rng = np.random.default_rng(12)
    n = 60
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(5.0, 400.0, n)
    op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
    ivp = SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                         rng.standard_normal(n), 1.0)
    report = two_pass_lanczos(ivp, SolverConfig(tol=1e-8))
    # reference: full-storage Lanczos with the same per-branch dimensions
    ms = {}
    for entry in report.residual_log:
        ms[entry.phase] = entry.m
    w = ivp.g - op.matrix @ ivp.u
    y_ref = ivp.u.copy()
    v_ref = np.zeros(n)
    t2 = ivp.t_final**2
    for start, m_used, kind in ((w, ms["psi"], ScalarFunKind.PSI),
                                (ivp.v, ms["sigma"], ScalarFunKind.SIGMA)):
        d = krylov_build(op, start, m_used)
        cache = d.spectral_cache()
        if kind == ScalarFunKind.PSI:
            y_ref = y_ref + d.V_m @ (0.5 * t2 * cache.fun_e1(kind, t2))
            v_ref = v_ref + d.V_m @ (ivp.t_final * cache.fun_e1(ScalarFunKind.SIGMA, t2))
        else:
            y_ref = y_ref + d.V_m @ (ivp.t_final * cache.fun_e1(kind, t2))
            v_ref = v_ref + d.V_m @ cache.fun_e1(ScalarFunKind.COS, t2)
    assert np.linalg.norm(report.y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)
    assert np.linalg.norm(report.v_out - v_ref) <= 1e-12 * max(np.linalg.norm(v_ref), 1)


def test_two_pass_breakdown_in_invariant_subspace(monkeypatch):
    monkeypatch.setattr(integ, "TWO_PASS_CHECK_INTERVAL", 1)
    rng = np.random.default_rng(13)
    n = 30
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(1.0, 9.0, n)
    op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
    u = q[:, :3] @ np.array([1.0, -2.0, 0.5])
    v = q[:, :3] @ np.array([0.3, 0.0, 1.0])
    ivp = SecondOrderIVP(op, u, v, None, 1.5)
    report = two_pass_lanczos(ivp, SolverConfig(tol=1e-10))
    y_ref, _ = exact_ivp_solution(ivp, 1.5)
    assert _rel_err(report.y, y_ref) <= 1e-10
    assert report.matvecs <= 16  # three-dimensional invariant subspaces
    # sigma (two eigencomponents) breaks down before its next check and is logged
    assert report.matvecs == _matvecs_from_log(report)


def _counting_from_tridiagonal(monkeypatch):
    """Patch SpectralCache.from_tridiagonal to record one entry per call."""
    calls = []
    from_tridiagonal = SpectralCache.from_tridiagonal.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return from_tridiagonal(cls, *args, **kwargs)

    monkeypatch.setattr(SpectralCache, "from_tridiagonal", classmethod(counting))
    return calls


def test_two_pass_factors_each_tridiagonal_once_per_check(monkeypatch):
    # pass two takes its coefficients from pass one's converged curve, so
    # the only factorizations are the residual checks of pass one
    calls = _counting_from_tridiagonal(monkeypatch)
    for ivp in (build_wave3d(isotropic_wave_spec(10)),
                _random_spd_ivp(np.random.default_rng(12), n=60)):
        calls.clear()
        report = two_pass_lanczos(ivp, SolverConfig(tol=1e-8))
        checks = sum(math.ceil(e.m / integ.TWO_PASS_CHECK_INTERVAL)
                     for e in report.residual_log if e.phase in ("psi", "sigma"))
        assert len(calls) == checks


def _hex_log(report):
    return [(e.phase, e.cycle, e.m, *map(float.hex, (e.t_start, e.t_end, e.residual)))
            for e in report.residual_log]


@pytest.mark.parametrize("name", ["rt-sim", "rt-seq", "gautschi"])
def test_gate_skips_checks_without_moving_a_bit(monkeypatch, name):
    # the anisotropic 10^3 cell at 1e-6, without the gate and with it;
    # Gautschi's step runs are gated by the margin, rt-sim and rt-seq by GATE
    ivp = build_wave3d(anisotropic_wave_spec(10))
    calls = _counting_from_tridiagonal(monkeypatch)
    runs = []
    for gate, margin in ((math.inf, math.inf), (integ.GATE, integ.GATE_MARGIN)):
        monkeypatch.setattr(integ, "GATE", gate)
        monkeypatch.setattr(integ, "GATE_MARGIN", margin)
        calls.clear()
        report = solve(ivp, SolverConfig(tol=1e-6), name)
        runs.append((report, len(calls)))
    (plain, plain_factors), (gated, gated_factors) = runs
    assert gated.matvecs == plain.matvecs
    assert ([float.hex(s) for s in gated.step_sizes]
            == [float.hex(s) for s in plain.step_sizes])
    assert _hex_log(gated) == _hex_log(plain)  # a rebuild's NaN residual too
    assert gated.y.tobytes() == plain.y.tobytes()
    assert gated_factors < plain_factors


def test_gate_still_checks_when_every_branch_breaks_down(monkeypatch):
    # both starting vectors lie in a three-dimensional invariant subspace,
    # and the horizon is far beyond GATE times the previous step: the only
    # check is the one at breakdown, and it certifies the whole horizon
    n = 30
    op = DenseOperator(np.diag(np.linspace(1.0, 50.0, n)), is_symmetric=True)
    branches = [(np.zeros(n), ScalarFunKind.PSI), (np.zeros(n), ScalarFunKind.SIGMA)]
    branches[0][0][[2, 11, 27]] = (1.0, -2.0, 0.5)
    branches[1][0][[2, 11, 27]] = (0.3, 1.0, -1.5)
    calls = _counting_from_tridiagonal(monkeypatch)
    curves, delta = integ._grow_admissible(op, branches, 10.0, 1e-8, 20, 1e-3)
    assert delta == 10.0
    assert [c.decomposition.m for c in curves] == [3, 3]
    assert all(c.decomposition.breakdown for c in curves)
    assert len(calls) == 2  # one snapshot per branch, at breakdown


def test_first_order_overflowing_checks_leak_no_numpy_warning(monkeypatch):
    # a check over too long a horizon overflows phi, and the corner's
    # product sums infinities of different phase into NaN: a violation by
    # design, not a warning to the caller.  n = 31 > m_max, so the block
    # branch keeps its halved cap and restarts
    n = 31
    op = DenseOperator(np.diag(np.logspace(0, 4, n)), is_symmetric=True)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    ivp = SecondOrderIVP(op, u, v, None, 10.0)
    coarse, nonfinite = integ.coarse_residual_check, []

    def coarse_spy(curve, t, tol):
        with np.errstate(all="ignore"):
            samples = curve.values(t * krylov.COARSE_FRACTIONS)
        nonfinite.append(not np.all(np.isfinite(samples)))
        return coarse(curve, t, tol)

    monkeypatch.setattr(integ, "coarse_residual_check", coarse_spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = rt_first_order_block(ivp, SolverConfig(tol=1e-6))
    assert (report.matvecs, report.steps) == (3020, 189)
    assert sum(nonfinite) == 3


def _huge_time_ivp(t_final):
    # the Krylov space is invariant at m = n = 12, so the whole interval is
    # admissible and t^2 overflows in the projected functions
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    op = DenseOperator(a @ a.T / 12 + np.eye(12), is_symmetric=True)
    return SecondOrderIVP(op, rng.standard_normal(12), rng.standard_normal(12),
                          rng.standard_normal(12), t_final)


@pytest.mark.parametrize("t_final", [1e160, 1e300])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_overflowing_final_time_raises_instead_of_a_non_finite_y(monkeypatch, name,
                                                                 t_final):
    monkeypatch.setattr(integ, "TWO_PASS_CHECK_INTERVAL", 10)
    ivp = _huge_time_ivp(t_final)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="overflow"):
        solve(ivp, SolverConfig(tol=1e-6), name)
    if name == "two-pass":
        # stopped at the first (non-finite) residual check
        assert ivp.op.matvec_count <= 1 + integ.TWO_PASS_CHECK_INTERVAL


def test_two_pass_iteration_cap_error(monkeypatch):
    monkeypatch.setattr(integ, "TWO_PASS_CHECK_INTERVAL", 4)
    rng = np.random.default_rng(14)
    n = 500
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(1e4, 4e4, n)
    op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
    ivp = SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                         None, 10.0)
    cfg = SolverConfig(tol=1e-14, m_max=2)
    with pytest.raises(RuntimeError, match="did not converge within 400 iterations"):
        two_pass_lanczos(ivp, cfg)


def _small_stiff_problems(count):
    """The first ``count`` of a stream of small stiff SPD problems (n = 8-24,
    eigenvalues 1e4 |N(0, 1)|), at t = 1 and t = 100 in turn."""
    rng = np.random.default_rng(2024)
    for i in range(count):
        n = int(rng.integers(8, 25))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = 1e4 * np.abs(rng.standard_normal(n))
        op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
        t = (1.0, 100.0)[i % 2]
        yield SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                             rng.standard_normal(n), t)


def test_two_pass_converges_past_n_iterations():
    # Three-term Lanczos in floating point can need more than n steps on a
    # stiff spectrum; capping the recurrence at n made some of these fail.
    for i, ivp in enumerate(_small_stiff_problems(40)):
        n, t = ivp.op.dim, ivp.t_final
        report = two_pass_lanczos(ivp, SolverConfig(tol=1e-6))
        y_ref, _ = exact_ivp_solution(ivp, t)
        assert report.matvecs <= 160, (i, n, report.matvecs)
        assert _rel_err(report.y, y_ref) <= 1e-6, (i, n)


def test_gautschi_frees_its_start_up_bases():
    ivp = build_wave3d(isotropic_wave_spec(40))
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        report = gautschi(ivp, SolverConfig(tol=1e-6))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert report.matvecs == 141
    # the stepping loop holds one 31-row basis; the two start-up bases of
    # 26 rows each, if kept alive, would push the peak past 120
    assert peak / (8 * ivp.op.dim) <= 80


def test_gautschi_stepping_holds_one_psi_basis():
    # with v = 0 the start-up builds one 26-row psi basis, so the peak is
    # set by the steps: one 31-row basis at a time, plus y, the velocity,
    # g - A y, the operator's plane-group workspace (0.2 n-vectors at 40^3),
    # the process's scratch vector and the step's rates and velocities
    ivp = build_wave3d(isotropic_wave_spec(40))
    ivp = SecondOrderIVP(ivp.op, ivp.u, np.zeros(ivp.op.dim), ivp.g, ivp.t_final)
    cfg = SolverConfig(tol=1e-6)
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        report = gautschi(ivp, cfg)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert report.steps > 1
    assert peak / (8 * ivp.op.dim) <= (cfg.m_max + 1) + 10


def test_gautschi_start_up_rounds_its_certified_step_to_divide_t_final(monkeypatch):
    # Both branches live, psi shortens sigma's step, and the step they
    # certify does not divide t_final: cycle 0 rounds it down to a whole
    # fraction of t_final and checks no residual outside its two runs.
    ivp = _repair_heavy_instance(np.random.default_rng(42))
    grow, certified, stray = integ._grow_admissible, [], []
    inside = False

    def grow_spy(*args):
        nonlocal inside
        inside = True
        try:
            curves, delta = grow(*args)
        finally:
            inside = False
        certified.append(delta)
        return curves, delta

    def check_spy(name):
        check = getattr(integ, name)

        def spy(*args):
            if not inside and len(certified) <= 2:
                stray.append(name)
            return check(*args)
        return spy

    monkeypatch.setattr(integ, "_grow_admissible", grow_spy)
    for name in ("coarse_residual_check", "confirm_admissible",
                 "find_largest_admissible_step"):
        monkeypatch.setattr(integ, name, check_spy(name))
    report = gautschi(ivp, SolverConfig(tol=1e-8, m_max=8))
    step = min(certified[:2])  # the sigma run, then the psi run
    quotient = ivp.t_final / step
    assert abs(quotient - round(quotient)) > 1e-3
    assert not stray
    assert report.step_sizes[0] <= step * (1 + 1e-12)
    k = ivp.t_final / report.step_sizes[0]
    assert abs(k - round(k)) <= 1e-9


def _repair_heavy_instance(rng):
    n = 40
    lam = np.concatenate([np.linspace(1.0, 4.0, n - 8),
                          np.linspace(900.0, 2500.0, 8)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mat = (q * lam) @ q.T
    op = DenseOperator(mat, is_symmetric=True)
    u = q[:, :6] @ rng.standard_normal(6)
    v = q[:, :4] @ rng.standard_normal(4)
    g = q[:, -3:] @ rng.standard_normal(3) * 3.0
    return SecondOrderIVP(op, u, v, g, 6.0)


def test_gautschi_repair_path_equivalence():
    events = []
    orig = integ._repair_psi_action

    def spy(op, curve, w, delta, delta_tilde, cfg):
        x, steps = orig(op, curve, w, delta, delta_tilde, cfg)
        events.append((w.copy(), delta, x.copy()))
        return x, steps

    rng = np.random.default_rng(42)
    ivp = _repair_heavy_instance(rng)
    tol = 1e-8
    integ._repair_psi_action = spy
    try:
        report = gautschi(ivp, SolverConfig(tol=tol, m_max=8))
    finally:
        integ._repair_psi_action = orig
    assert report.repair_events >= 1
    assert report.repair_events == len(events)
    for w, delta, x in events:
        # delta/2 psi(delta^2 A) w is y(delta)/delta of y'' = -A y + w from rest
        rest = SecondOrderIVP(ivp.op, np.zeros_like(w), np.zeros_like(w), w, delta)
        x_exact = exact_ivp_solution(rest, delta)[0] / delta
        assert np.linalg.norm(x - x_exact) <= 2 * tol * np.linalg.norm(w)
    y_ref, _ = exact_ivp_solution(ivp, ivp.t_final)
    assert _rel_err(report.y, y_ref) <= 10 * tol


def _matvecs_from_log(report):
    # one g - A y per cycle (first-order: the block residual g_hat - B w,
    # also one matvec) plus one matvec per Krylov step of each entry; the m
    # of a rebuild, bridge or replay entry is the matvecs it spends
    return report.steps + sum(e.m for e in report.residual_log)


def _multi_cycle_ivp():
    rng = np.random.default_rng(18)
    n = 40
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(50.0, 3000.0, n)
    op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
    return SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                          rng.standard_normal(n), 1.7)


@pytest.mark.parametrize("name, instance, cfg, matvecs", [
    *[pytest.param(name, _multi_cycle_ivp, SolverConfig(tol=1e-6, m_max=10), None, id=name)
      for name in ("rt-sim", "rt-seq", "gautschi", "first-order")],
    pytest.param("gautschi", lambda: _repair_heavy_instance(np.random.default_rng(42)),
                 SolverConfig(tol=1e-8, m_max=8), None, id="gautschi-bridged"),
    pytest.param("two-pass", _multi_cycle_ivp, SolverConfig(tol=1e-6, m_max=10), 159,
                 id="two-pass"),
    # g - A u once, then m steps in pass one and m - 1 in pass two per branch
    pytest.param("two-pass", lambda: build_wave3d(isotropic_wave_spec(10)),
                 SolverConfig(tol=1e-6), 119, id="two-pass-isotropic10"),
])
def test_matvecs_match_the_residual_log(name, instance, cfg, matvecs):
    report = solve(instance(), cfg, name)
    if name == "two-pass":  # one cycle, whose branches each made several checks
        assert all(e.m > integ.TWO_PASS_CHECK_INTERVAL
                   for e in report.residual_log if e.phase != "replay")
    else:
        assert report.steps > 1
    assert report.matvecs == _matvecs_from_log(report)
    assert matvecs is None or report.matvecs == matvecs


@pytest.mark.parametrize("name", ["rt-sim", "rt-seq", "first-order"])
def test_restart_cycle_limit(monkeypatch, name):
    cfg = SolverConfig(tol=1e-6, m_max=10)
    assert solve(_multi_cycle_ivp(), cfg, name).steps > 1
    monkeypatch.setattr(integ, "_MAX_CYCLES", 1)
    with pytest.raises(RuntimeError, match="restart cycle limit exceeded"):
        solve(_multi_cycle_ivp(), cfg, name)


def test_sequential_repair_triggers_and_recovers():
    from trigkrylov.problems import TransportProblemSpec, build_transport

    ivp = build_transport(TransportProblemSpec(128))
    report = rt_sequential(ivp, SolverConfig(tol=1e-4))
    assert report.repair_events >= 1
    # every sigma rejection here lands on a rung: no psi basis is rebuilt
    assert not [e for e in report.residual_log if e.phase == "rebuild"]
    assert report.matvecs == _matvecs_from_log(report)
    y_ref, _ = exact_ivp_solution(ivp, 1.0)
    assert _rel_err(report.y, y_ref) <= 1.5e-4


def test_sequential_rebuild_fallback_without_rungs(monkeypatch):
    from trigkrylov.problems import TransportProblemSpec, build_transport

    monkeypatch.setattr(integ, "PSI_STEP_RUNGS", ())
    ivp = build_transport(TransportProblemSpec(128))
    report = rt_sequential(ivp, SolverConfig(tol=1e-4))
    rebuilds = [e for e in report.residual_log if e.phase == "rebuild"]
    assert rebuilds
    assert len(rebuilds) == report.repair_events
    assert report.matvecs == _matvecs_from_log(report)
    y_ref, _ = exact_ivp_solution(ivp, 1.0)
    assert _rel_err(report.y, y_ref) <= 1.5e-4


def test_sequential_peak_is_one_basis_plus_the_rungs():
    ivp = build_wave3d(isotropic_wave_spec(40))
    cfg = SolverConfig(tol=1e-6)
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        report = rt_sequential(ivp, cfg)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert report.repair_events >= 1  # the ladder is used, not only formed
    basis = cfg.m_max + 1
    ladder = 2 * (1 + len(integ.PSI_STEP_RUNGS))  # position and velocity per step
    # y, vel, g - A y, the process's scratch vector, the sigma updates and
    # the summed velocity; the operator's plane-group workspace is 0.2
    # n-vectors at 40^3
    constant = 7
    assert peak / (8 * ivp.op.dim) <= basis + ladder + constant


@pytest.mark.parametrize("name", ["rt-seq", "gautschi"])
def test_small_stiff_spd_reorthogonalizes_at_full_dimension(name):
    # m_cap = 30 >= n: without reorthogonalization the Lanczos basis loses
    # orthogonality, and these solves took 8180 (rt-seq) and 7505
    # (gautschi) matvecs to miss tol by 8x and 110x
    rng = np.random.default_rng(1)
    n = 19
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    op = DenseOperator((q * (1e4 * np.abs(rng.standard_normal(n)))) @ q.T,
                       is_symmetric=True)
    ivp = SecondOrderIVP(op, *rng.standard_normal((3, n)), 100.0)
    report = solve(ivp, SolverConfig(tol=1e-6), name)
    y_ref, _ = exact_ivp_solution(ivp, 100.0)
    assert report.matvecs <= 2 * n + 2
    assert _rel_err(report.y, y_ref) <= 1e-10


@pytest.mark.parametrize("name", ["rt-sim", "first-order", "gautschi"])
def test_operators_no_larger_than_m_max_take_the_full_krylov_cap(name):
    # n <= m_max: rt-sim caps each branch at n, first-order its block
    # branch at 2n and Gautschi its start-up runs at n, so one cycle reaches
    # an invariant subspace.  With the halved cap of 15 these solves took
    # 1042 (rt-sim) and 3019 (first-order) matvecs to reach 2.5e-5 and
    # 3.9e-5 on the diagonal problem, and 24922 and 48543 to reach 1.6e-5
    # and 1.2e-3 on the n = 19 stiff one; Gautschi's start-up capped at
    # floor(0.85 * m_max) = 25 took 329 matvecs in 15 steps to reach 6.9e-6
    # on the diagonal problem
    n = 30
    op = DenseOperator(np.diag(np.logspace(0, 4, n)), is_symmetric=True)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    stiff = list(_small_stiff_problems(2))[1]
    for ivp in (SecondOrderIVP(op, u, v, None, 10.0), stiff):
        report = solve(ivp, SolverConfig(tol=1e-6), name)
        y_ref, _ = exact_ivp_solution(ivp, ivp.t_final)
        assert report.matvecs <= 2 * ivp.op.dim + 2
        assert _rel_err(report.y, y_ref) <= 1e-8


@pytest.mark.parametrize("kind", [ScalarFunKind.PSI, ScalarFunKind.SIGMA,
                                  ScalarFunKind.PHI])
def test_branch_updates_batch_the_parlett_evaluations(kind):
    from trigkrylov import smallfun

    # 3I + N + 1e-3 L from e1: H_m is its leading block, whose distinct
    # eigenvalues have an eigenvector matrix too ill conditioned for the
    # eigenbasis path, so the cache takes the block-exponential fallback
    n = 64
    op = DenseOperator(3.0 * np.eye(n) + np.eye(n, k=1) + 1e-3 * np.eye(n, k=-1),
                       is_symmetric=False)
    curve = ResidualCurve(krylov_build(op, np.eye(n)[0], 10), kind)
    d, cache = curve.decomposition, curve.cache
    assert not cache.symmetric and cache.h_mat is not None
    steps = [0.05 * f for f in (1.0, 0.99, 0.98, 0.97, 0.96)]
    updates = integ._branch_updates(curve, steps)
    terms = smallfun.BRANCH_TERMS[kind]
    assert updates.shape == (len(steps), len(terms), n)
    for i, s in enumerate(steps):
        for j, (prefactor, fun, scale) in enumerate(terms):
            s_arr = np.array([s])
            ref = d.V_m @ (prefactor(s_arr)[0] * cache.fun_e1(fun, scale(s_arr)[0]))
            assert np.linalg.norm(updates[i, j] - ref) <= 1e-13 * np.linalg.norm(ref)


def test_transport512_krylov_caches_take_the_eigenbasis_path(monkeypatch):
    # every projected matrix of the benchmark's transport cells is well
    # conditioned enough for the eigenbasis; a silent block-exponential
    # fallback would cost many times the solve time
    from trigkrylov.problems import TransportProblemSpec, build_transport
    from trigkrylov.smallfun import SpectralCache

    caches = []
    from_dense = SpectralCache.from_dense.__func__

    def recording(cls, *args, **kwargs):
        caches.append(from_dense(cls, *args, **kwargs))
        return caches[-1]

    monkeypatch.setattr(SpectralCache, "from_dense", classmethod(recording))
    ivp = build_transport(TransportProblemSpec(512))
    for name, tol in (("rt-seq", 1e-6), ("rt-sim", 1e-6), ("gautschi", 1e-6),
                      ("first-order", 1e-5)):
        before = len(caches)
        solve(ivp, SolverConfig(tol=tol), name)
        assert len(caches) > before, name
    fallback = [c.m for c in caches if c.h_mat is not None]
    assert not fallback, f"{len(fallback)} of {len(caches)} caches took the fallback"


def test_zero_velocity_branch_skipped():
    rng = np.random.default_rng(15)
    ivp = _random_spd_ivp(rng, n=16)
    ivp = SecondOrderIVP(ivp.op, ivp.u, np.zeros(16), ivp.g, 1.0)
    for name in ("rt-sim", "rt-seq", "two-pass", "gautschi"):
        report = solve(ivp, SolverConfig(tol=1e-9, m_max=16), name)
        y_ref, _ = exact_ivp_solution(ivp, 1.0)
        assert _rel_err(report.y, y_ref) <= 1e-7, name


def test_zero_forcing_branch_skipped():
    rng = np.random.default_rng(16)
    n = 16
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + 2 * np.eye(n)
    op = DenseOperator(mat, is_symmetric=True)
    u = rng.standard_normal(n)
    ivp = SecondOrderIVP(op, u, rng.standard_normal(n), mat @ u, 1.0)
    for name in ("rt-sim", "rt-seq", "two-pass", "gautschi", "first-order"):
        report = solve(ivp, SolverConfig(tol=1e-9, m_max=16), name)
        y_ref, _ = exact_ivp_solution(ivp, 1.0)
        assert _rel_err(report.y, y_ref) <= 1e-7, name


def test_simultaneous_halves_basis_budget():
    rng = np.random.default_rng(17)
    n = 60
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(50.0, 2000.0, n)
    op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
    ivp = SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                         None, 1.0)
    report = rt_simultaneous(ivp, SolverConfig(tol=1e-6, m_max=20))
    for entry in report.residual_log:
        assert entry.m <= 10
    report2 = rt_simultaneous(ivp, SolverConfig(tol=1e-6, m_max=40))
    for entry in report2.residual_log:
        assert entry.m <= 20
    assert report2.steps <= report.steps


def test_step_sizes_sum_to_final_time():
    rng = np.random.default_rng(18)
    n = 40
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(50.0, 3000.0, n)
    op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
    ivp = SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                         None, 1.7)
    for name in ("rt-sim", "rt-seq", "gautschi", "first-order"):
        report = solve(ivp, SolverConfig(tol=1e-6, m_max=10), name)
        assert sum(report.step_sizes) == pytest.approx(1.7, rel=1e-12), name


def _kept_bytes(curve, updates):
    return curve.decomposition.V_m.tobytes(), updates.tobytes()


def test_a_kept_rt_seq_psi_curve_outlives_the_later_cycles_of_its_solve(monkeypatch):
    # the first psi curve and its ladder are held to the end of the solve,
    # so every later growth of the solve's pool must leave them alone
    ivp = build_wave3d(anisotropic_wave_spec(10))
    cfg = SolverConfig(tol=1e-6)
    plain = rt_sequential(ivp, cfg)
    kept, updates = [], integ._branch_updates

    def spy(curve, steps):
        out = updates(curve, steps)
        if not kept:
            kept.append((curve, out, _kept_bytes(curve, out)))
        return out

    monkeypatch.setattr(integ, "_branch_updates", spy)
    report = rt_sequential(ivp, cfg)
    assert report.steps > 2
    (curve, out, before), = kept
    assert curve.kind is ScalarFunKind.PSI
    assert _kept_bytes(curve, out) == before
    assert report.y.tobytes() == plain.y.tobytes()


def test_a_gautschi_step_curve_outlives_its_bridge(monkeypatch):
    # the bridge is a nested rt-seq solve, which shares the pool of the
    # Gautschi solve whose step curve it serves
    ivp = _repair_heavy_instance(np.random.default_rng(42))
    cfg = SolverConfig(tol=1e-8, m_max=8)
    plain = gautschi(ivp, cfg)
    checked, repair = [], integ._repair_psi_action

    def spy(op, curve, w, delta, delta_tilde, cfg):
        before = _kept_bytes(curve, w)
        x, steps = repair(op, curve, w, delta, delta_tilde, cfg)
        checked.append(_kept_bytes(curve, w) == before)
        return x, steps

    monkeypatch.setattr(integ, "_repair_psi_action", spy)
    report = gautschi(ivp, cfg)
    assert checked and all(checked)
    assert report.y.tobytes() == plain.y.tobytes()


@pytest.mark.parametrize("name", ["rt-seq", "rt-sim"])
def test_a_solve_allocates_a_few_stores_and_reuses_them(monkeypatch, name):
    seen, takes, allocated = weakref.WeakValueDictionary(), [], []
    take = krylov.StorePool.take

    def counting(pool, rows, n):
        store = take(pool, rows, n)
        takes.append(rows)
        if seen.get(id(store)) is not store:
            seen[id(store)] = store
            allocated.append(rows)
        return store

    monkeypatch.setattr(krylov.StorePool, "take", counting)
    report = solve(build_wave3d(isotropic_wave_spec(40)), SolverConfig(tol=1e-6), name)
    # a basis and the updates of each branch in every cycle, from two bases
    # and two update arrays: rt-seq's psi ladder and sigma step, or
    # rt-sim's two branches
    assert len(takes) >= 4 * report.steps
    assert len(allocated) <= 4, allocated
