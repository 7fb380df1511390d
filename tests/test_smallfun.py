import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas

from trigkrylov import smallfun
from trigkrylov.integrators import SecondOrderIVP
from trigkrylov.krylov import krylov_build
from trigkrylov.linop import BlockFirstOrderOperator, DenseOperator, assemble_dense
from trigkrylov.problems import TransportProblemSpec, build_transport
from trigkrylov.smallfun import (
    PADE_THRESHOLD,
    ScalarFunKind,
    SpectralCache,
    cos_sqrt,
    exact_ivp_solution,
    matfun_action,
    parlett_batched,
    parlett_fun_triangular,
    phi,
    projected_solution,
    projected_velocity,
    psi,
    scalar_fun,
    sigma,
)

mp.mp.dps = 50


def _series_oracle(kind, z, terms=200):
    """Extended-precision Taylor series of psi/sigma/phi in the variable z."""
    z = mp.mpf(z) if not isinstance(z, complex) else mp.mpc(z)
    total = mp.mpf(0)
    term = mp.mpf(1)
    for k in range(terms):
        if kind == "psi":
            coeff = 2 / mp.factorial(2 * k + 2)
        elif kind == "sigma":
            coeff = 1 / mp.factorial(2 * k + 1)
        else:
            coeff = 1 / mp.factorial(k + 1)
        total += (-1) ** k * coeff * term if kind != "phi" else coeff * term
        term *= z
    return total


def _closed_oracle(kind, z):
    z = mp.mpf(z)
    if z == 0:
        return mp.mpf(1)
    s = mp.sqrt(z) if z > 0 else mp.mpc(0, mp.sqrt(-z))
    if kind == "psi":
        return 2 * (1 - mp.cos(s)) / z
    if kind == "sigma":
        return mp.sin(s) / s
    return (mp.e**z - 1) / z


def test_values_at_zero():
    assert psi(0.0) == 1.0
    assert sigma(0.0) == 1.0
    assert phi(0.0) == 1.0
    assert cos_sqrt(0.0) == 1.0


def test_sigma_at_pi_squared_is_zero():
    assert abs(sigma(np.pi**2)) <= 1e-14


def test_psi_at_pi_squared():
    ref = float(_series_oracle("psi", np.pi**2))
    assert ref == pytest.approx(4 / np.pi**2, rel=1e-15)
    assert psi(np.pi**2) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("kind,fun", [("psi", psi), ("sigma", sigma), ("phi", phi)])
def test_accuracy_sweep(kind, fun):
    zs = np.concatenate([
        np.logspace(-8, 6, 40),
        -np.logspace(-8, 2, 20),
    ])
    if kind == "phi":
        zs = zs[np.abs(zs) <= 50.0]  # exp overflow scale is out of contract
    for z in zs:
        if abs(z) <= 100:
            ref = float(_series_oracle(kind, z))
        else:
            ref = float(_closed_oracle(kind, z))
        assert fun(z) == pytest.approx(ref, rel=5e-13, abs=1e-300), (kind, z)


def test_small_argument_region_accuracy():
    # Wrong Pade coefficients would show up at the 1e-6 level here.
    for kind, fun in (("psi", psi), ("sigma", sigma), ("phi", phi)):
        for z in (1e-4, -1e-4, 9.9e-4, -9.9e-4, 1e-7):
            ref = float(_series_oracle(kind, z))
            assert fun(z) == pytest.approx(ref, rel=3e-13), (kind, z)


def test_pade_continuity_at_threshold():
    z = PADE_THRESHOLD
    pade_psi = (1 - z / 20) / (1 + z / 30)
    pade_sigma = (1 - 7 * z / 60) / (1 + z / 20)
    assert abs(pade_psi - float(_closed_oracle("psi", z))) <= 1e-10
    assert abs(pade_sigma - float(_closed_oracle("sigma", z))) <= 1e-10


def test_complex_arguments():
    z = 2.0 + 1.5j
    s = np.sqrt(z)
    assert sigma(z) == pytest.approx(np.sin(s) / s, rel=1e-12)
    assert psi(z) == pytest.approx(2 * (1 - np.cos(s)) / z, rel=1e-12)
    assert phi(z) == pytest.approx((np.exp(z) - 1) / z, rel=1e-12)


def test_cos_sqrt_identity():
    z = np.linspace(0.1, 40.0, 17)
    np.testing.assert_allclose(cos_sqrt(z), 1 - z * psi(z) / 2, atol=1e-13)


def test_scalar_fun_dispatch():
    assert scalar_fun(ScalarFunKind.PSI, 0.0) == 1.0
    assert scalar_fun(ScalarFunKind.COS, np.pi**2) == pytest.approx(-1.0)


def test_matfun_action_trivial_cases():
    np.testing.assert_allclose(
        matfun_action(np.zeros((1, 1)), ScalarFunKind.PSI, 1.0, np.array([1.0])),
        [1.0],
    )
    h = np.diag([np.pi**2, 4 * np.pi**2])
    out = matfun_action(h, ScalarFunKind.SIGMA, 1.0, np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("kind", list(ScalarFunKind))
def test_matfun_action_symmetric_vs_eig_oracle(kind):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 8))
    h = (a + a.T) / 2
    b = rng.standard_normal(8)
    lam, q = np.linalg.eigh(h)
    fn = {ScalarFunKind.PSI: psi, ScalarFunKind.SIGMA: sigma,
          ScalarFunKind.PHI: phi, ScalarFunKind.COS: cos_sqrt}[kind]
    scale = 0.7
    ref = q @ (fn(scale * lam) * (q.T @ b))
    out = matfun_action(h, kind, scale, b)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.linalg.norm(ref) + 1e-15)


@pytest.mark.parametrize("kind", [ScalarFunKind.PSI, ScalarFunKind.SIGMA, ScalarFunKind.PHI])
def test_matfun_action_schur_path_vs_diagonalizable_oracle(kind):
    rng = np.random.default_rng(3)
    lam = np.linspace(0.5, 9.0, 9)
    v = rng.standard_normal((9, 9)) + np.eye(9)
    h = v @ np.diag(lam) @ np.linalg.inv(v)
    b = rng.standard_normal(9)
    fn = {ScalarFunKind.PSI: psi, ScalarFunKind.SIGMA: sigma, ScalarFunKind.PHI: phi}[kind]
    ref = (v @ np.diag(fn(1.3 * lam)) @ np.linalg.inv(v)) @ b
    out = matfun_action(h, kind, 1.3, b, symmetric=False)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9 * np.linalg.norm(ref))
    schur = SpectralCache.from_dense(h, symmetric=False, eigenbasis=False)
    assert schur.t_mat is not None
    np.testing.assert_allclose(schur.apply_fun(kind, 1.3, b), ref, rtol=0,
                               atol=1e-9 * np.linalg.norm(ref))


def test_parlett_adjacent_confluent_pair():
    # Exactly repeated diagonal: the divided-difference (2x2 Sylvester) path.
    t_mat = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    f = parlett_fun_triangular(t_mat, ScalarFunKind.SIGMA, 1.0)
    lam = 2.0
    dsig = (np.cos(np.sqrt(lam)) - sigma(lam)) / (2 * lam)
    assert f[0, 1] == pytest.approx(dsig, rel=1e-12)
    assert f[0, 0] == pytest.approx(sigma(lam), rel=1e-13)


def test_parlett_nonadjacent_cluster_is_exact():
    # 1 and 1 + 1e-12 are not adjacent on the diagonal, so the recurrence
    # would divide by their separation; the augmented exponential does not
    d = [1.0, 3.0, 1.0 + 1e-12]
    t_mat = np.triu(np.ones((3, 3))) + np.diag(d) - np.eye(3)
    z = mp.matrix(t_mat.tolist())
    for kind in ScalarFunKind:
        f = parlett_fun_triangular(t_mat.astype(complex), kind, 1.0)
        ref, term = mp.zeros(3), mp.eye(3)
        for k in range(80):
            ref += _TAYLOR_COEFF[kind](k) * term
            term = term * z
        ref = np.array(ref.tolist(), dtype=complex)
        assert np.linalg.norm(f - ref) <= 1e-13 * np.linalg.norm(ref), kind


_TAYLOR_COEFF = {
    ScalarFunKind.PSI: lambda k: 2 * (-1) ** k / mp.factorial(2 * k + 2),
    ScalarFunKind.SIGMA: lambda k: (-1) ** k / mp.factorial(2 * k + 1),
    ScalarFunKind.PHI: lambda k: 1 / mp.factorial(k + 1),
    ScalarFunKind.COS: lambda k: (-1) ** k / mp.factorial(2 * k),
}


def _taylor_corner(h, kind, scale, terms=80):
    """e_m^T f(scale*H) e_1 by the Taylor series in extended precision.

    Also returns sum_k |c_k| ||scale*H||_2^k, a bound on ||f(scale*H)||_2
    that sets the absolute round-off level of any double-precision method.
    """
    m = h.shape[0]
    z = mp.matrix(h.tolist()) * mp.mpf(scale)
    znorm = mp.mpf(float(abs(scale) * np.linalg.norm(h, 2)))
    x = mp.matrix(m, 1)
    x[0] = 1
    corner, bound = mp.mpf(0), mp.mpf(0)
    for k in range(terms):
        coeff = _TAYLOR_COEFF[kind](k)
        corner += coeff * x[m - 1]
        bound += abs(coeff) * znorm**k
        x = z * x
    return float(corner), float(bound)


def _hessenberg(m, seed):
    return np.triu(np.random.default_rng(seed).standard_normal((m, m)), -1)


def _check_against_taylor_oracle(cache, h, kind, scales, beta):
    """Corner, fun_e1 and apply_fun of ``cache`` within 1e-13 of the bound
    of the extended-precision Taylor oracle."""
    m = h.shape[0]
    e1 = np.zeros(m)
    e1[0] = beta
    got = cache.corner_fun_e1(kind, scales)
    for s, value in zip(scales, got):
        ref, bound = _taylor_corner(h, kind, s)
        tol = 1e-13 * beta * bound
        assert abs(value - beta * ref) <= tol, (s, value, beta * ref)
        assert abs(cache.fun_e1(kind, s)[-1] - beta * ref) <= tol, s
        assert abs(cache.apply_fun(kind, s, e1)[-1] - beta * ref) <= tol, s
    return got


@pytest.mark.parametrize("m", [1, 2, 10])
@pytest.mark.parametrize("kind", list(ScalarFunKind))
def test_batched_corner_vs_taylor_oracle(m, kind):
    h = _hessenberg(m, 40 + m)
    beta = 1.7
    scales = np.array([0.0, 1e-18, 1e-9, 0.3, 1.5, -0.8])
    for eigenbasis in (True, False):
        cache = SpectralCache.from_dense(h, beta=beta, symmetric=False,
                                         eigenbasis=eigenbasis)
        # these H have kappa_1(X) <= 40, so only eigenbasis=False is Schur
        assert (cache.t_mat is None) == eigenbasis
        got = _check_against_taylor_oracle(cache, h, kind, scales, beta)
        # one scale at a time through fun_e1 and apply_fun gives the same corner
        e1 = np.zeros(m)
        e1[0] = beta
        for s, value in zip(scales, got):
            assert cache.fun_e1(kind, s)[-1] == pytest.approx(value, rel=1e-12, abs=1e-15)
            assert cache.apply_fun(kind, s, e1)[-1] == pytest.approx(value, rel=1e-12, abs=1e-15)


@pytest.fixture(scope="module")
def nonsymmetric_krylov_h():
    """Projected matrices of the transport512 operator: Arnoldi on A at
    m = 2, 10, 30, and on the first-order block [[0, -I], [A, 0]] at m = 12,
    whose eigenvalues come in complex-conjugate pairs."""
    ivp = build_transport(TransportProblemSpec(512))
    out = {f"arnoldi{m}": krylov_build(ivp.op, ivp.v, m).H_m for m in (2, 10, 30)}
    block = BlockFirstOrderOperator(ivp.op)
    out["first-order12"] = krylov_build(block, np.concatenate([ivp.v, ivp.g]), 12).H_m
    return out


@pytest.mark.parametrize("name", ["arnoldi2", "arnoldi10", "arnoldi30", "first-order12"])
@pytest.mark.parametrize("kind", list(ScalarFunKind))
def test_eigenbasis_path_vs_taylor_oracle(nonsymmetric_krylov_h, name, kind):
    h = nonsymmetric_krylov_h[name]
    cache = SpectralCache.from_dense(h, beta=1.7, symmetric=False)
    assert not cache.symmetric and cache.t_mat is None
    if name.startswith("first-order"):
        assert np.sum(np.abs(cache.lam.imag) > 1e-8 * np.abs(cache.lam).max()) >= 2
    # ||sH|| up to 20, where the oracle's 80 Taylor terms still converge
    scales = np.array([0.0, 1e-18, 1e-9, 0.3, 1.5, 20.0, -0.8]) / np.linalg.norm(h, 2)
    _check_against_taylor_oracle(cache, h, kind, scales, 1.7)


def _near_jordan(m, eps=1e-3):
    """3I + N + eps L: distinct eigenvalues 3 + 2 sqrt(eps) cos(k pi/(m+1)),
    but an eigenvector matrix with kappa of about eps^(-(m-1)/2)."""
    return 3.0 * np.eye(m) + np.eye(m, k=1) + eps * np.eye(m, k=-1)


@pytest.mark.parametrize("h", [
    _near_jordan(10),
    (3.0 * np.eye(2) + np.eye(2, k=1)).T,
    (3.0 * np.eye(5) + np.eye(5, k=1)).T,
], ids=["near-jordan10", "jordan2", "jordan5"])
@pytest.mark.parametrize("kind", list(ScalarFunKind))
def test_non_normal_h_falls_back_to_schur(h, kind):
    cache = SpectralCache.from_dense(h, beta=1.7, symmetric=False)
    assert cache.t_mat is not None
    scales = np.array([0.0, 1e-18, 1e-9, 0.3, 1.5, -0.8])
    _check_against_taylor_oracle(cache, h, kind, scales, 1.7)


def test_confluent_schur_factor_keeps_per_sample_path():
    # A Jordan block: the Schur factor has a repeated diagonal entry, so the
    # cache evaluates each scale with the divided-difference recurrence.
    h = np.array([[2.0, 1.0], [0.0, 2.0]])
    cache = SpectralCache.from_dense(h, symmetric=False)
    scales = np.array([0.0, 0.4, 1.0])
    for kind in ScalarFunKind:
        got = cache.corner_fun_e1(kind, scales)
        for s, value in zip(scales, got):
            ref, bound = _taylor_corner(h, kind, s)
            assert abs(value - ref) <= 1e-13 * bound


def test_parlett_batched_rejects_repeated_diagonal():
    t_mat = np.array([[1.0, 2.0, 0.5], [0.0, 3.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="repeated diagonal"):
        parlett_batched(t_mat, np.ones((4, 3)))


def test_corner_costs_one_triangular_solve_per_column(monkeypatch):
    # Guards against a per-sample loop: 200 scales must share the m - 1
    # column solves.  Both the BLAS routine and the scipy wrapper count.
    calls = []

    def counting(module, name):
        solve = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(scipy.linalg.blas, "ztrsm")
    counting(scipy.linalg, "solve_triangular")
    m = 12
    cache = SpectralCache.from_dense(_near_jordan(m), symmetric=False)
    assert cache.t_mat is not None  # kappa_1(X) is far above the eigenbasis bound
    cache.corner_fun_e1(ScalarFunKind.SIGMA, np.linspace(0.0, 2.0, 200))
    assert 0 < len(calls) <= m


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("kind", list(ScalarFunKind))
def test_fun_e1_scale_array_matches_per_scale_calls(symmetric, kind):
    m = 9
    h = _hessenberg(m, 11)
    if symmetric:
        h = np.triu(h) + np.triu(h, 1).T
    cache = SpectralCache.from_dense(h, beta=1.3, symmetric=symmetric)
    scales = np.array([0.0, 1e-9, 0.3, 0.7, 1.5, -0.4])
    batched = cache.fun_e1(kind, scales)
    assert batched.shape == (scales.size, m)
    assert cache.fun_e1(kind, 0.3).shape == (m,)
    for s, row in zip(scales, batched):
        single = cache.fun_e1(kind, s)
        assert np.max(np.abs(row - single)) <= 1e-14 * max(np.max(np.abs(single)), 1.0)


def test_projected_solution_zero_time():
    h = np.array([[2.0, 0.3], [0.3, 1.0]])
    for kind in (ScalarFunKind.PSI, ScalarFunKind.SIGMA, ScalarFunKind.PHI):
        np.testing.assert_allclose(projected_solution(h, kind, 2.0, 0.0), [0.0, 0.0])


def test_projected_solution_scalar_closed_forms():
    lam, beta, t = 3.7, 1.0, 1.3
    h = np.array([[lam]])
    u_psi = projected_solution(h, ScalarFunKind.PSI, beta, t)
    assert u_psi[0] == pytest.approx((1 - np.cos(t * np.sqrt(lam))) / lam, rel=1e-13)
    u_sig = projected_solution(h, ScalarFunKind.SIGMA, beta, t)
    assert u_sig[0] == pytest.approx(np.sin(t * np.sqrt(lam)) / np.sqrt(lam), rel=1e-13)
    u_phi = projected_solution(h, ScalarFunKind.PHI, beta, t)
    assert u_phi[0] == pytest.approx((1 - np.exp(-t * lam)) / lam, rel=1e-13)


def test_projected_velocity_scalar_closed_forms():
    lam, t = 2.2, 0.9
    h = np.array([[lam]])
    v_psi = projected_velocity(h, ScalarFunKind.PSI, 1.0, t)
    assert v_psi[0] == pytest.approx(t * sigma(t * t * lam), rel=1e-13)
    v_sig = projected_velocity(h, ScalarFunKind.SIGMA, 1.0, t)
    assert v_sig[0] == pytest.approx(np.cos(t * np.sqrt(lam)), rel=1e-13)
    with pytest.raises(ValueError):
        projected_velocity(h, ScalarFunKind.PHI, 1.0, t)


def _random_spd_ivp(rng, n=10, t_final=1.7):
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + 2 * np.eye(n)
    return SecondOrderIVP(
        DenseOperator(mat, is_symmetric=True),
        rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n),
        t_final,
    )


def test_exact_ivp_initial_conditions():
    ivp = _random_spd_ivp(np.random.default_rng(2))
    y0, v0 = exact_ivp_solution(ivp, 0.0)
    np.testing.assert_allclose(y0, ivp.u, atol=1e-14)
    np.testing.assert_allclose(v0, ivp.v, atol=1e-14)


@pytest.mark.parametrize("symmetric", [True, False])
def test_exact_ivp_one_sigma_for_w_and_v(symmetric):
    rng = np.random.default_rng(31)
    n = 12
    mat = rng.standard_normal((n, n)) / np.sqrt(n) + 2 * np.eye(n)
    if symmetric:
        mat = (mat + mat.T) / 2
    ivp = SecondOrderIVP(DenseOperator(mat, is_symmetric=symmetric),
                         rng.standard_normal(n), rng.standard_normal(n),
                         rng.standard_normal(n), 1.0)
    t = 0.9
    y, yp = exact_ivp_solution(ivp, t)
    # the two-call form: sigma(t^2 A) applied to w and to v separately
    cache = SpectralCache.from_dense(mat, symmetric=symmetric)
    w = ivp.g - mat @ ivp.u
    t2 = t * t
    y_ref = (ivp.u + 0.5 * t2 * cache.apply_fun(ScalarFunKind.PSI, t2, w)
             + t * cache.apply_fun(ScalarFunKind.SIGMA, t2, ivp.v))
    yp_ref = (t * cache.apply_fun(ScalarFunKind.SIGMA, t2, w)
              + cache.apply_fun(ScalarFunKind.COS, t2, ivp.v))
    assert np.linalg.norm(y - y_ref) <= 1e-14 * np.linalg.norm(y_ref)
    assert np.linalg.norm(yp - yp_ref) <= 1e-14 * np.linalg.norm(yp_ref)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_exact_ivp_jordan_block_matches_augmented_expm(n):
    # A = 3I + N has one eigenvalue of multiplicity n: for n >= 3 its Schur
    # diagonal is a cluster longer than an adjacent pair
    a = 3.0 * np.eye(n) + np.eye(n, k=1)
    rng = np.random.default_rng(n)
    u, v, g = rng.standard_normal((3, n))
    t = 0.7
    y, yp = exact_ivp_solution(SecondOrderIVP(DenseOperator(a, is_symmetric=False),
                                              u, v, g, t), t)
    # (y, y', 1)' = [[0, I, 0], [-A, 0, g], [0, 0, 0]] (y, y', 1)
    block = np.zeros((2 * n + 1, 2 * n + 1))
    block[:n, n:2 * n] = np.eye(n)
    block[n:2 * n, :n] = -a
    block[n:2 * n, 2 * n] = g
    ref = scipy.linalg.expm(t * block) @ np.concatenate([u, v, [1.0]])
    assert np.linalg.norm(y - ref[:n]) <= 1e-13 * np.linalg.norm(ref[:n])
    assert np.linalg.norm(yp - ref[n:2 * n]) <= 1e-13 * np.linalg.norm(ref[n:2 * n])


def test_exact_ivp_identity_sine():
    op = DenseOperator(np.eye(2), is_symmetric=True)
    ivp = SecondOrderIVP(op, np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), np.pi)
    y, _ = exact_ivp_solution(ivp, np.pi)
    np.testing.assert_allclose(y, [0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("symmetric", [True, False])
def test_exact_ivp_ode_residual_finite_difference(symmetric):
    rng = np.random.default_rng(9)
    n = 8
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + 2 * np.eye(n)
    if not symmetric:
        mat = mat + 0.3 * (rng.standard_normal((n, n)) - rng.standard_normal((n, n)).T)
    ivp = SecondOrderIVP(DenseOperator(mat, is_symmetric=symmetric),
                         rng.standard_normal(n), rng.standard_normal(n),
                         rng.standard_normal(n), 2.0)
    a_mat = mat
    t, h = 0.8, 1e-4
    ys = [exact_ivp_solution(ivp, s)[0] for s in (t - h, t, t + h)]
    ypp = (ys[0] - 2 * ys[1] + ys[2]) / h**2
    resid = np.linalg.norm(ypp + a_mat @ ys[1] - ivp.g)
    assert resid <= 1e-6 * (np.linalg.norm(a_mat @ ivp.u) + np.linalg.norm(ivp.g) + 1)


def test_exact_ivp_velocity_is_time_derivative():
    ivp = _random_spd_ivp(np.random.default_rng(4))
    t, h = 0.9, 1e-5
    ym, _ = exact_ivp_solution(ivp, t - h)
    yp, _ = exact_ivp_solution(ivp, t + h)
    _, v = exact_ivp_solution(ivp, t)
    np.testing.assert_allclose((yp - ym) / (2 * h), v,
                               atol=1e-8 * max(1.0, np.linalg.norm(v)))


def _raise(*args, **kwargs):
    raise AssertionError("the nonsymmetric reference must not call this")


def test_exact_ivp_nonsymmetric_uses_none_of_the_solver_functions(monkeypatch):
    # a defect in the solvers' scalar functions or Schur-Parlett code must
    # not reach the ground truth the solvers are checked against
    monkeypatch.setattr(smallfun, "scalar_fun", _raise)
    monkeypatch.setattr(SpectralCache, "from_dense", _raise)
    monkeypatch.setattr(scipy.linalg, "schur", _raise)
    ivp = build_transport(TransportProblemSpec(64))
    y, yp = exact_ivp_solution(ivp, 1.0)
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(yp))
    assert np.linalg.norm(y) > 0


def _near_jordan_ivp(n, t):
    rng = np.random.default_rng(n)
    return SecondOrderIVP(DenseOperator(_near_jordan(n), is_symmetric=False),
                          *rng.standard_normal((3, n)), t)


def _random_nonsymmetric_ivp(n, t):
    rng = np.random.default_rng(10)
    return SecondOrderIVP(DenseOperator(rng.standard_normal((n, n)), is_symmetric=False),
                          *rng.standard_normal((3, n)), t)


def _block_exponential_oracle(ivp, t):
    """(y, y') from exp(t B) (u, v, 1), B = [[0, I, 0], [-A, 0, g], [0, 0, 0]],
    with mpmath's exponential at 30 digits."""
    a_mat = assemble_dense(ivp.op)
    n = a_mat.shape[0]
    with mp.workdps(30):
        block = mp.zeros(2 * n + 1, 2 * n + 1)
        for i in range(n):
            block[i, n + i] = 1
            block[n + i, 2 * n] = ivp.g[i]
            for j in range(n):
                block[n + i, j] = -a_mat[i, j]
        z = mp.expm(t * block) * mp.matrix(np.concatenate([ivp.u, ivp.v, [1.0]]).tolist())
        z = np.array([float(z[i]) for i in range(2 * n)])
    return z[:n], z[n:]


@pytest.mark.parametrize("make_ivp, t, bound", [
    (lambda t: build_transport(TransportProblemSpec(16, t_final=t)), 1.0, 1e-13),
    (lambda t: _random_nonsymmetric_ivp(10, t), 1.0, 1e-13),
    (lambda t: _near_jordan_ivp(6, t), 1.0, 1e-13),
    # the forward error grows with t ||B||: scipy's dense expm of the same
    # block is 1.6e-13 off here, the action 5e-13
    (lambda t: _near_jordan_ivp(6, t), 100.0, 1e-10),
], ids=["transport16", "random10", "near-jordan6", "near-jordan6-t100"])
def test_exact_ivp_nonsymmetric_vs_extended_precision(make_ivp, t, bound):
    ivp = make_ivp(t)
    y_ref, yp_ref = _block_exponential_oracle(ivp, t)
    y, yp = exact_ivp_solution(ivp, t)
    assert np.linalg.norm(y - y_ref) <= bound * np.linalg.norm(y_ref)
    assert np.linalg.norm(yp - yp_ref) <= bound * np.linalg.norm(yp_ref)


@pytest.mark.parametrize("n", [128, 256])
def test_exact_ivp_nonsymmetric_agrees_with_schur_parlett(n):
    ivp = build_transport(TransportProblemSpec(n))
    a_mat = assemble_dense(ivp.op)
    cache = SpectralCache.from_dense(a_mat, symmetric=False, eigenbasis=False)
    w = ivp.g - a_mat @ ivp.u
    t = ivp.t_final
    t2 = t * t
    y_ref = (ivp.u + 0.5 * t2 * cache.apply_fun(ScalarFunKind.PSI, t2, w)
             + t * cache.apply_fun(ScalarFunKind.SIGMA, t2, ivp.v))
    yp_ref = (t * cache.apply_fun(ScalarFunKind.SIGMA, t2, w)
              + cache.apply_fun(ScalarFunKind.COS, t2, ivp.v))
    y, yp = exact_ivp_solution(ivp, t)
    assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)
    assert np.linalg.norm(yp - yp_ref) <= 1e-10 * np.linalg.norm(yp_ref)


def test_exact_ivp_nonsymmetric_edge_cases():
    ivp = build_transport(TransportProblemSpec(64))
    y, yp = exact_ivp_solution(ivp, 0.0)
    assert np.array_equal(y, ivp.u) and np.array_equal(yp, ivp.v)
    # g != 0: the equilibrium u = A^-1 g, v = 0 stays where it is
    a_mat = assemble_dense(ivp.op)
    g = np.random.default_rng(64).standard_normal(64)
    u = np.linalg.solve(a_mat, g)
    y, yp = exact_ivp_solution(SecondOrderIVP(ivp.op, u, np.zeros(64), g, 1.0), 1.0)
    assert np.linalg.norm(y - u) <= 1e-12 * np.linalg.norm(u)
    assert np.linalg.norm(yp) <= 1e-12 * np.linalg.norm(u)


def _dense_actions(a_mat, t, w):
    lam, q = np.linalg.eigh(a_mat)
    def act(fvals):
        return q @ (fvals * (q.T @ w))
    t2 = t * t
    return {
        "pos_psi": 0.5 * t2 * act(psi(t2 * lam)),
        "vel_psi": t * act(sigma(t2 * lam)),
        "pos_sigma": t * act(sigma(t2 * lam)),
        "cos": act(cos_sqrt(t2 * lam)),
        "a_psi": act(lam * psi(t2 * lam)),
        "a_sigma": act(lam * sigma(t2 * lam)),
    }


def test_first_derivative_identities():
    # d/dt [t^2/2 psi(t^2 A) w] = t sigma(t^2 A) w, and
    # d/dt [t sigma(t^2 A) w] = (I - t^2/2 A psi(t^2 A)) w.
    rng = np.random.default_rng(21)
    for _ in range(4):
        a = rng.standard_normal((6, 6))
        mat = a @ a.T / 6 + np.eye(6)
        w = rng.standard_normal(6)
        t, h = 0.7, 1e-5
        f = lambda s: _dense_actions(mat, s, w)
        d_pos = (f(t + h)["pos_psi"] - f(t - h)["pos_psi"]) / (2 * h)
        ref = f(t)["vel_psi"]
        assert np.linalg.norm(d_pos - ref) <= 1e-6 * max(np.linalg.norm(ref), 1.0)
        d_sig = (f(t + h)["pos_sigma"] - f(t - h)["pos_sigma"]) / (2 * h)
        ref2 = w - 0.5 * t * t * f(t)["a_psi"]
        assert np.linalg.norm(d_sig - ref2) <= 1e-6 * max(np.linalg.norm(ref2), 1.0)


def test_second_derivative_identities():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((6, 6))
    mat = a @ a.T / 6 + np.eye(6)
    w = rng.standard_normal(6)
    t, h = 0.6, 1e-4
    pos = lambda s: _dense_actions(mat, s, w)["pos_psi"]
    d2 = (pos(t - h) - 2 * pos(t) + pos(t + h)) / h**2
    ref = w - 0.5 * t * t * _dense_actions(mat, t, w)["a_psi"]
    assert np.linalg.norm(d2 - ref) <= 1e-5 * max(np.linalg.norm(ref), 1.0)
    vel = lambda s: _dense_actions(mat, s, w)["pos_sigma"]
    d2s = (vel(t - h) - 2 * vel(t) + vel(t + h)) / h**2
    ref2 = -t * _dense_actions(mat, t, w)["a_sigma"]
    assert np.linalg.norm(d2s - ref2) <= 1e-5 * max(np.linalg.norm(ref2), 1.0)


def test_spectral_cache_reconstruction_and_reuse():
    rng = np.random.default_rng(13)
    diag = rng.standard_normal(12)
    off = rng.standard_normal(11)
    cache = SpectralCache.from_tridiagonal(diag, off, beta=2.0)
    h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    rec = cache.q @ np.diag(cache.lam) @ cache.q.T
    assert np.linalg.norm(rec - h) <= 50 * np.finfo(float).eps * np.linalg.norm(h) * 12
    # one factorization, many times
    e1 = np.zeros(12)
    e1[0] = 1.0
    for t in (0.1, 0.7, 2.0):
        lam, q = np.linalg.eigh(h)
        ref = 2.0 * (q @ (sigma(t * t * lam) * q.T[:, 0]))
        np.testing.assert_allclose(cache.fun_e1(ScalarFunKind.SIGMA, t * t), ref,
                                   atol=1e-12 * np.linalg.norm(ref) + 1e-15)


def _guarded(fun, z):
    """fun(z) forced through the Pade-guarded path: an appended 0 is below
    the threshold, and the path is elementwise, so the other entries are
    what that path gives them."""
    z = np.asarray(z, dtype=float)
    return fun(np.append(z.ravel(), 0.0))[:-1].reshape(z.shape)


@pytest.mark.parametrize("fun", [psi, sigma])
def test_direct_path_bits_equal_the_guarded_path(fun):
    z = np.concatenate([[PADE_THRESHOLD, np.nextafter(PADE_THRESHOLD, 1.0), 0.5,
                         np.pi**2, 4 * np.pi**2], np.geomspace(1e-3, 1e9, 40)])
    assert np.array_equal(fun(z), _guarded(fun, z))
    grid = np.outer(np.linspace(0.1, 3.0, 6), z)
    assert np.array_equal(fun(grid), _guarded(fun, grid))


def _tridiagonal(m, rng, lowest=None):
    """(diag, offdiag) with eigenvalues of both signs and a zero one, or,
    given ``lowest``, with the smallest eigenvalue there."""
    if m == 1:
        return np.zeros(1) if lowest is None else np.full(1, lowest), np.zeros(0)
    diag = rng.uniform(-50.0, 400.0, m)
    off = rng.uniform(0.5, 40.0, m - 1)
    lam = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    return diag - (lam[m // 2] if lowest is None else lam[0] - lowest), off


@pytest.mark.parametrize("m", [1, 2, 30])
def test_from_tridiagonal_bits_equal_eigh_tridiagonal(m):
    diag, off = _tridiagonal(m, np.random.default_rng(m))
    cache = SpectralCache.from_tridiagonal(diag, off, beta=1.5)
    lam, q = scipy.linalg.eigh_tridiagonal(diag, off)
    assert np.array_equal(cache.lam, lam) and np.array_equal(cache.q, q)
    assert lam[0] < 0 if m > 1 else lam[0] == 0


@pytest.mark.parametrize("m", [1, 2, 30])
@pytest.mark.parametrize("kind", [ScalarFunKind.PSI, ScalarFunKind.SIGMA])
def test_symmetric_corner_bits_equal_the_guarded_evaluation(m, kind):
    rng = np.random.default_rng(100 + m)
    indefinite = _tridiagonal(m, rng)
    definite = _tridiagonal(m, rng, lowest=1.0)
    for tri, scales in (
        (indefinite, np.geomspace(1e-8, 10.0, 25)),   # z < 0, z = 0, both sides
        (definite, np.geomspace(1e-2, 10.0, 25)),     # every z above the threshold
        (definite, np.array([0.0, 1e-9, 1e-5, 1.0])),
    ):
        cache = SpectralCache.from_tridiagonal(*tri, beta=1.5)
        z = np.outer(scales, cache.lam)
        expected = 1.5 * (_guarded(lambda a: scalar_fun(kind, a), z)
                          @ (cache.q[-1, :] * cache.q[0, :]))
        assert np.array_equal(cache.corner_fun_e1(kind, scales), expected)
    assert SpectralCache.from_tridiagonal(*definite).lam[0] * 1e-2 >= PADE_THRESHOLD


@pytest.mark.parametrize("diag, off", [
    ([1.0, np.nan, 2.0], [0.5, 0.5]),
    ([1.0, 2.0, 3.0], [0.5, np.inf]),
    ([np.nan], []),
])
def test_from_tridiagonal_rejects_non_finite_entries(diag, off):
    with pytest.raises(ValueError):
        SpectralCache.from_tridiagonal(np.array(diag), np.array(off))
