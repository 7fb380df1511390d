import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from trigkrylov import smallfun
from trigkrylov.integrators import SecondOrderIVP
from trigkrylov.krylov import krylov_build
from trigkrylov.linop import (
    BlockFirstOrderOperator,
    DenseOperator,
    SparseCSR,
    assemble_dense,
    dirichlet_laplacian_1d,
)
from trigkrylov.problems import (
    TransportProblemSpec,
    build_transport,
    build_wave3d,
    exact_ivp_solution,
    isotropic_wave_spec,
    spectral_reference_wave3d,
)
from trigkrylov.smallfun import (
    ScalarFunKind,
    SpectralCache,
    branch_coefficients,
    cos_sqrt,
    phi,
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
    # The closed forms do not cancel for small |z|: each stays within
    # 1e-15 of the 50-digit series, down to the smallest subnormal.
    small = np.logspace(-12, -2, 41)
    parts = np.linspace(-2e-3, 2e-3, 9)
    groups = [small, -small, (parts[:, None] + 1j * parts).ravel(), np.array([5e-324])]
    for kind, fun in (("psi", psi), ("sigma", sigma), ("phi", phi)):
        for zs in groups:  # one call per group: the positive one takes sigma's fast path
            for z, value in zip(zs, fun(zs)):
                ref = _series_oracle(kind, complex(z) if np.iscomplexobj(zs) else float(z))
                assert abs(mp.mpc(value) - ref) <= 1e-15 * abs(ref), (kind, z)


def test_complex_arguments():
    z = 2.0 + 1.5j
    s = np.sqrt(z)
    assert sigma(z) == pytest.approx(np.sin(s) / s, rel=1e-12)
    assert psi(z) == pytest.approx(2 * (1 - np.cos(s)) / z, rel=1e-12)
    assert phi(z) == pytest.approx((np.exp(z) - 1) / z, rel=1e-12)


@pytest.mark.parametrize("z", [700 + 0j, 800 + 0j, 800 + 1j, 1000 + 0j])
def test_phi_complex_overflow_has_no_nan(z):
    with np.errstate(all="raise"):
        value = phi(np.array([z]))[0]
    ref = (mp.exp(mp.mpc(z)) - 1) / mp.mpc(z)
    if abs(ref) < np.finfo(float).max:  # 700 + 0j
        assert value == pytest.approx(complex(ref), rel=1e-13)
    else:
        assert np.isinf(value.real) and not np.isnan(value.imag)
        assert np.sign(value.real) == mp.sign(ref.real)
        assert value.imag == 0.0 if z.imag == 0 else np.isinf(value.imag)


def test_phi_of_infinity_is_infinity():
    # exp(z - log z) at z = inf would be exp(inf - inf) = NaN; mpmath's
    # (exp(z) - 1)/z is inf/inf there, so the reference is the limit itself
    with np.errstate(all="raise"):
        assert phi(np.inf) == np.inf
        value = phi(np.array([np.inf + 0j]))[0]
    assert value.real == np.inf and value.imag == 0.0


def test_phi_keeps_the_bits_of_its_finite_values():
    # phi without its overflow branch: expm1(z)/z, and 1 at z = 0
    def expm1_formula(z):
        zero = z == 0
        zsafe = np.where(zero, 1.0, z)
        with np.errstate(all="ignore"):
            direct = np.expm1(zsafe) / zsafe
        return np.where(zero, 1.0, direct)

    real = np.concatenate([np.logspace(-8, 6, 40), -np.logspace(-8, 2, 20),
                           np.linspace(-50.0, 709.7, 97), [0.0]])
    grids = [real, real.astype(complex),
             (real[:, None] + 1j * np.array([-3.0, 0.5, 2.0])).ravel()]
    for z in grids:
        expected = expm1_formula(z)
        finite = np.isfinite(expected)
        assert finite.sum() > 140
        assert np.array_equal(phi(z)[finite], expected[finite])


def test_cos_sqrt_identity():
    z = np.linspace(0.1, 40.0, 17)
    np.testing.assert_allclose(cos_sqrt(z), 1 - z * psi(z) / 2, atol=1e-13)


def test_scalar_fun_dispatch():
    assert scalar_fun(ScalarFunKind.PSI, 0.0) == 1.0
    assert scalar_fun(ScalarFunKind.COS, np.pi**2) == pytest.approx(-1.0)


def test_matfun_action_trivial_cases():
    zero = SpectralCache.from_tridiagonal(np.zeros(1), np.zeros(0))
    np.testing.assert_allclose(zero.fun_e1(ScalarFunKind.PSI, 1.0), [1.0])
    cache = SpectralCache.from_tridiagonal(np.array([np.pi**2, 4 * np.pi**2]), np.zeros(1))
    out = cache.fun_e1(ScalarFunKind.SIGMA, 1.0)
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("kind", list(ScalarFunKind))
def test_matfun_action_symmetric_vs_eig_oracle(kind):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 8))
    h = (a + a.T) / 2
    beta = rng.standard_normal()
    b = beta * np.eye(8)[0]
    lam, q = np.linalg.eigh(h)
    fn = {ScalarFunKind.PSI: psi, ScalarFunKind.SIGMA: sigma,
          ScalarFunKind.PHI: phi, ScalarFunKind.COS: cos_sqrt}[kind]
    scale = 0.7
    ref = q @ (fn(scale * lam) * (q.T @ b))
    out = SpectralCache(lam=lam, q=q, beta=beta).fun_e1(kind, scale)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.linalg.norm(ref) + 1e-15)


def _force_fallback(monkeypatch):
    """Make every nonsymmetric H take the augmented-block exponential:
    kappa_1(X) is at least 1 for any X."""
    monkeypatch.setattr(smallfun, "EIGENBASIS_KAPPA_MAX", 0.5)


@pytest.mark.parametrize("kind", [ScalarFunKind.PSI, ScalarFunKind.SIGMA, ScalarFunKind.PHI])
def test_matfun_action_schur_path_vs_diagonalizable_oracle(monkeypatch, kind):
    rng = np.random.default_rng(3)
    lam = np.linspace(0.5, 9.0, 9)
    v = rng.standard_normal((9, 9)) + np.eye(9)
    h = v @ np.diag(lam) @ np.linalg.inv(v)
    beta = rng.standard_normal()
    b = beta * np.eye(9)[0]
    fn = {ScalarFunKind.PSI: psi, ScalarFunKind.SIGMA: sigma, ScalarFunKind.PHI: phi}[kind]
    ref = (v @ np.diag(fn(1.3 * lam)) @ np.linalg.inv(v)) @ b
    out = SpectralCache.from_dense(h, beta=beta).fun_e1(kind, 1.3)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9 * np.linalg.norm(ref))
    _force_fallback(monkeypatch)
    fallback = SpectralCache.from_dense(h, beta=beta)
    assert fallback.h_mat is not None
    np.testing.assert_allclose(fallback.fun_e1(kind, 1.3), ref, rtol=0,
                               atol=1e-9 * np.linalg.norm(ref))


def test_parlett_nonadjacent_cluster_is_exact():
    # 1 and 1 + 1e-12 are not adjacent on the diagonal, so a Parlett
    # recurrence would divide by their separation; the augmented exponential
    # the cache falls back to does not
    d = [1.0, 3.0, 1.0 + 1e-12]
    h = np.triu(np.ones((3, 3))) + np.diag(d) - np.eye(3)
    cache = SpectralCache.from_dense(h)
    assert cache.h_mat is not None
    z = mp.matrix(h.tolist())
    for kind in ScalarFunKind:
        f = cache.fun_e1(kind, 1.0)
        ref, term = mp.zeros(3), mp.eye(3)
        for k in range(80):
            ref += _TAYLOR_COEFF[kind](k) * term
            term = term * z
        ref = np.array(ref.tolist(), dtype=complex)[:, 0]
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
    """Corner and fun_e1 of ``cache`` within 1e-13 of the bound of the
    extended-precision Taylor oracle."""
    got = cache.corner_fun_e1(kind, scales)
    for s, value in zip(scales, got):
        ref, bound = _taylor_corner(h, kind, s)
        tol = 1e-13 * beta * bound
        assert abs(value - beta * ref) <= tol, (s, value, beta * ref)
        assert abs(cache.fun_e1(kind, s)[-1] - beta * ref) <= tol, s
    return got


@pytest.mark.parametrize("m", [1, 2, 10])
@pytest.mark.parametrize("kind", list(ScalarFunKind))
def test_batched_corner_vs_taylor_oracle(monkeypatch, m, kind):
    h = _hessenberg(m, 40 + m)
    beta = 1.7
    scales = np.array([0.0, 1e-18, 1e-9, 0.3, 1.5, -0.8])
    for eigenbasis in (True, False):
        if not eigenbasis:
            _force_fallback(monkeypatch)
        cache = SpectralCache.from_dense(h, beta=beta)
        # these H have kappa_1(X) <= 40, so only the forced run falls back
        assert (cache.h_mat is None) == eigenbasis
        got = _check_against_taylor_oracle(cache, h, kind, scales, beta)
        # one scale at a time through fun_e1 gives the same corner
        for s, value in zip(scales, got):
            assert cache.fun_e1(kind, s)[-1] == pytest.approx(value, rel=1e-12, abs=1e-15)


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
    cache = SpectralCache.from_dense(h, beta=1.7)
    assert not cache.symmetric and cache.h_mat is None
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
    cache = SpectralCache.from_dense(h, beta=1.7)
    assert cache.h_mat is not None
    scales = np.array([0.0, 1e-18, 1e-9, 0.3, 1.5, -0.8])
    _check_against_taylor_oracle(cache, h, kind, scales, 1.7)


@pytest.mark.parametrize("m", [6, 10])
@pytest.mark.parametrize("kind", list(ScalarFunKind))
def test_near_defective_apply_fun_vs_taylor_oracle(m, kind):
    # eigenvalues about 0.02 (m = 6) or 0.01 (m = 10) apart: an unblocked
    # Parlett recurrence divides by those separations and loses 3 to 8 digits
    h = _near_jordan(m)
    beta = np.random.default_rng(m).standard_normal()
    cache = SpectralCache.from_dense(h, beta=beta)
    assert cache.h_mat is not None
    b = beta * np.eye(m)[0]
    for scale in (0.3, 1.0, 2.0, 4.0):
        z = mp.matrix(h.tolist()) * mp.mpf(scale)
        x, ref = mp.matrix(b.tolist()), mp.matrix(m, 1)
        for k in range(120):
            ref += _TAYLOR_COEFF[kind](k) * x
            x = z * x
        ref = np.array([float(r) for r in ref])
        got = cache.fun_e1(kind, scale)
        assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref), scale


def test_confluent_schur_factor_keeps_per_sample_path():
    # A Jordan block has no eigenbasis, so the cache evaluates each scale
    # through the augmented-block exponential.
    h = np.array([[2.0, 1.0], [0.0, 2.0]])
    cache = SpectralCache.from_dense(h)
    assert cache.h_mat is not None
    scales = np.array([0.0, 0.4, 1.0])
    for kind in ScalarFunKind:
        got = cache.corner_fun_e1(kind, scales)
        for s, value in zip(scales, got):
            ref, bound = _taylor_corner(h, kind, s)
            assert abs(value - ref) <= 1e-13 * bound


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("kind", list(ScalarFunKind))
def test_fun_e1_scale_array_matches_per_scale_calls(symmetric, kind):
    m = 9
    h = _hessenberg(m, 11)
    if symmetric:
        lam, q = np.linalg.eigh(np.triu(h) + np.triu(h, 1).T)
        cache = SpectralCache(lam=lam, q=q, beta=1.3)
    else:
        cache = SpectralCache.from_dense(h, beta=1.3)
    scales = np.array([0.0, 1e-9, 0.3, 0.7, 1.5, -0.4])
    batched = cache.fun_e1(kind, scales)
    assert batched.shape == (scales.size, m)
    assert cache.fun_e1(kind, 0.3).shape == (m,)
    for s, row in zip(scales, batched):
        single = cache.fun_e1(kind, s)
        assert np.max(np.abs(row - single)) <= 1e-14 * max(np.max(np.abs(single)), 1.0)


def test_projected_solution_zero_time():
    cache = SpectralCache.from_tridiagonal(np.array([2.0, 1.0]), np.array([0.3]), beta=2.0)
    for kind in (ScalarFunKind.PSI, ScalarFunKind.SIGMA, ScalarFunKind.PHI):
        np.testing.assert_allclose(branch_coefficients(cache, kind, 0.0)[0, 0], [0.0, 0.0])


def test_projected_solution_scalar_closed_forms():
    lam, beta, t = 3.7, 1.0, 1.3
    cache = SpectralCache.from_tridiagonal(np.array([lam]), np.zeros(0), beta=beta)
    u_psi = branch_coefficients(cache, ScalarFunKind.PSI, t)[0, 0]
    assert u_psi[0] == pytest.approx((1 - np.cos(t * np.sqrt(lam))) / lam, rel=1e-13)
    u_sig = branch_coefficients(cache, ScalarFunKind.SIGMA, t)[0, 0]
    assert u_sig[0] == pytest.approx(np.sin(t * np.sqrt(lam)) / np.sqrt(lam), rel=1e-13)
    u_phi = branch_coefficients(cache, ScalarFunKind.PHI, t)[0, 0]
    assert u_phi[0] == pytest.approx((1 - np.exp(-t * lam)) / lam, rel=1e-13)


def test_projected_velocity_scalar_closed_forms():
    lam, t = 2.2, 0.9
    cache = SpectralCache.from_tridiagonal(np.array([lam]), np.zeros(0))
    v_psi = branch_coefficients(cache, ScalarFunKind.PSI, t)[0, 1]
    assert v_psi[0] == pytest.approx(t * sigma(t * t * lam), rel=1e-13)
    v_sig = branch_coefficients(cache, ScalarFunKind.SIGMA, t)[0, 1]
    assert v_sig[0] == pytest.approx(np.cos(t * np.sqrt(lam)), rel=1e-13)


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
    raise AssertionError("must not be called here")


def _isotropic17_sparse_ivp():
    """The isotropic 17^3 wave (n = 4913, past the dense assembly cap of
    4096) on its stored seven-point matrix, flagged symmetric; with its spec."""
    spec = isotropic_wave_spec(17)
    lap = scipy.sparse.csr_matrix(dirichlet_laplacian_1d(17))
    a_mat = scipy.sparse.kronsum(scipy.sparse.kronsum(lap, lap), lap, format="csr")
    wave = build_wave3d(spec)
    return spec, SecondOrderIVP(SparseCSR(a_mat, is_symmetric=True), wave.u, wave.v,
                                None, spec.t_final)


def test_exact_ivp_nonsymmetric_uses_none_of_the_solver_functions(monkeypatch):
    # a defect in the solvers' scalar functions, eigenbasis or
    # block-exponential fallback must not reach the ground truth the
    # solvers are checked against: not of a nonsymmetric operator, nor of a
    # stored symmetric matrix
    from trigkrylov import linop

    monkeypatch.setattr(smallfun, "scalar_fun", _raise)
    monkeypatch.setattr(SpectralCache, "from_dense", _raise)
    monkeypatch.setattr(smallfun, "_fun_by_expm", _raise)
    monkeypatch.setattr(scipy.linalg, "schur", _raise)
    monkeypatch.setattr(linop, "assemble_dense", _raise)
    for ivp in (build_transport(TransportProblemSpec(64)), _isotropic17_sparse_ivp()[1]):
        y, yp = exact_ivp_solution(ivp, 1.0)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(yp))
        assert np.linalg.norm(y) > 0


def test_exact_ivp_symmetric_uses_none_of_the_solver_functions(monkeypatch):
    # the ground truth of an assembled symmetric operator factors A by eigh
    # and evolves its modes with numpy's cos and sinc, so no defect in the
    # solvers' small-matrix layer reaches it either
    monkeypatch.setattr(smallfun, "scalar_fun", _raise)
    monkeypatch.setattr(SpectralCache, "from_dense", _raise)
    monkeypatch.setattr(SpectralCache, "from_tridiagonal", _raise)
    monkeypatch.setattr(smallfun, "_fun_by_expm", _raise)
    kronecker = build_wave3d(isotropic_wave_spec(6))
    for ivp in (_random_spd_ivp(np.random.default_rng(5)), kronecker):
        assert ivp.op.is_symmetric
        y, yp = exact_ivp_solution(ivp, 1.0)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(yp))
        assert np.linalg.norm(y) > 0


def _modal_oracle(ivp, t):
    """(y(t), y'(t)) of a symmetric dense ``ivp`` from mpmath's ``eigsy`` of
    its matrix at 40 digits, mode by mode:
    y = u + Q (2 sin^2(t r/2)/lam w + sin(t r)/r v^), y' = Q (sin(t r)/r w
    + cos(t r) v^), r = sqrt(lam) (complex for lam < 0), w = Q^T (g - A u)."""
    with mp.workdps(40):
        a = mp.matrix(ivp.op.matrix.tolist())
        lam, q = mp.eigsy(a)
        u, v, g = (mp.matrix(x.tolist()) for x in (ivp.u, ivp.v, ivp.g))
        w, v_hat = q.T * (g - a * u), q.T * v
        t = mp.mpf(t)
        pos, vel = mp.matrix(ivp.op.dim, 1), mp.matrix(ivp.op.dim, 1)
        for k in range(ivp.op.dim):
            if lam[k] == 0:
                c, s, p = 1, t, t * t / 2
            else:
                r = mp.sqrt(mp.mpc(lam[k]))
                c, s = mp.re(mp.cos(t * r)), mp.re(mp.sin(t * r) / r)
                p = mp.re(2 * mp.sin(t * r / 2) ** 2 / lam[k])
            pos[k] = p * w[k] + s * v_hat[k]
            vel[k] = s * w[k] + c * v_hat[k]
        y, yp = u + q * pos, q * vel
        return np.array([float(x) for x in y]), np.array([float(x) for x in yp])


@pytest.mark.parametrize("lam", [
    np.logspace(0, 4, 12),
    np.concatenate([[0.0, 0.0], np.linspace(1.0, 10.0, 10)]),
    np.concatenate([[-2.0, -0.5], np.linspace(1.0, 100.0, 10)]),
], ids=["spd", "psd", "indefinite"])
def test_exact_ivp_symmetric_vs_extended_precision(lam):
    # the indefinite case at t = 10 is the least accurate in y' (1.1e-12):
    # eigh's eigenvector error, about eps ||A|| / gap, rides on the
    # cosh(10 sqrt 2) ~ 7e5 growth of the lam = -2 mode
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    mat = (q * lam) @ q.T
    ivp = SecondOrderIVP(DenseOperator((mat + mat.T) / 2, is_symmetric=True),
                         *rng.standard_normal((3, 12)), 1.0)
    for t in (0.0, 1e-12, 1e-3, 1.0, 10.0):
        y_ref, yp_ref = _modal_oracle(ivp, t)
        y, yp = exact_ivp_solution(ivp, t)
        assert np.linalg.norm(y - y_ref) <= 1e-11 * np.linalg.norm(y_ref), t
        assert np.linalg.norm(yp - yp_ref) <= 1e-11 * np.linalg.norm(yp_ref), t


def test_import_leaves_sparse_linalg_unloaded():
    # exact_ivp_solution imports scipy.sparse.linalg itself: at module level
    # it would add about 2 MB to the resident memory of every process
    src = str(Path(smallfun.__file__).parents[1])
    code = "import sys, trigkrylov; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


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
    w = ivp.g - a_mat @ ivp.u
    t = ivp.t_final
    t2 = t * t
    f = lambda kind: smallfun._fun_by_expm(t2 * a_mat, kind)
    y_ref = (ivp.u + 0.5 * t2 * f(ScalarFunKind.PSI) @ w
             + t * f(ScalarFunKind.SIGMA) @ ivp.v)
    yp_ref = t * f(ScalarFunKind.SIGMA) @ w + f(ScalarFunKind.COS) @ ivp.v
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


def test_exact_ivp_reads_a_sparse_operator_directly(monkeypatch):
    # assembling A here would take 4096 matvecs, 2.3 s and a 384 MiB peak
    from trigkrylov import linop
    import tracemalloc

    monkeypatch.setattr(linop, "assemble_dense", _raise)
    ivp = build_transport(TransportProblemSpec(4096))
    exact_ivp_solution(build_transport(TransportProblemSpec(16)), 1.0)  # warm imports
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        y, yp = exact_ivp_solution(ivp, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert ivp.op.matvec_count == 0
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(yp)) and np.linalg.norm(y) > 0
    # the block has 2n + 1 rows and about 5n nonzeros; A alone is 128 MiB dense
    assert peak <= 8 * 2**20


def test_exact_ivp_symmetric_sparse_matrix_past_the_assembly_cap():
    # a stored symmetric matrix takes the block exponential: densifying the
    # 17^3 operator for eigh would take 193 MB
    import tracemalloc

    spec, ivp = _isotropic17_sparse_ivp()
    exact_ivp_solution(build_transport(TransportProblemSpec(16)), 1.0)  # warm imports
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        y, yp = exact_ivp_solution(ivp, spec.t_final)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert ivp.op.matvec_count == 0
    assert peak <= 8 * 2**20
    y_ref, yp_ref = spectral_reference_wave3d(spec, spec.t_final)
    assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)
    assert np.linalg.norm(yp - yp_ref) <= 1e-12 * np.linalg.norm(yp_ref)


@pytest.mark.parametrize("symmetric", [False, True])
def test_exact_ivp_sparse_path_matches_the_assembled_operator(symmetric):
    # a stored matrix takes the block exponential whatever its flag, as an
    # assembled nonsymmetric operator does
    ivp = build_transport(TransportProblemSpec(512))
    csr = ivp.op.csr
    if symmetric:
        csr = (csr + csr.T) / 2
    sparse_op = SparseCSR(csr, is_symmetric=symmetric)
    dense_op = DenseOperator(csr.toarray(), is_symmetric=False)
    y_ref, yp_ref = exact_ivp_solution(SecondOrderIVP(dense_op, ivp.u, ivp.v, ivp.g), 1.0)
    y, yp = exact_ivp_solution(SecondOrderIVP(sparse_op, ivp.u, ivp.v, ivp.g), 1.0)
    assert sparse_op.matvec_count == 0
    assert np.linalg.norm(y - y_ref) <= 1e-13 * np.linalg.norm(y_ref)
    assert np.linalg.norm(yp - yp_ref) <= 1e-13 * np.linalg.norm(yp_ref)


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
    """fun(z) forced through the guarded path: an appended 0 is not
    positive, and the path is elementwise, so the other entries are
    what that path gives them."""
    z = np.asarray(z, dtype=float)
    return fun(np.append(z.ravel(), 0.0))[:-1].reshape(z.shape)


@pytest.mark.parametrize("fun", [psi, sigma])
def test_direct_path_bits_equal_the_guarded_path(fun):
    z = np.concatenate([[5e-324, 1e-3, np.nextafter(1e-3, 1.0), 0.5,
                         np.pi**2, 4 * np.pi**2], np.geomspace(1e-12, 1e9, 40)])
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
        (definite, np.geomspace(1e-2, 10.0, 25)),     # every z positive
        (definite, np.array([0.0, 1e-9, 1e-5, 1.0])),
    ):
        cache = SpectralCache.from_tridiagonal(*tri, beta=1.5)
        z = np.outer(scales, cache.lam)
        expected = 1.5 * (_guarded(lambda a: scalar_fun(kind, a), z)
                          @ (cache.q[-1, :] * cache.q[0, :]))
        assert np.array_equal(cache.corner_fun_e1(kind, scales), expected)
    assert SpectralCache.from_tridiagonal(*definite).lam[0] > 0


@pytest.mark.parametrize("diag, off", [
    ([1.0, np.nan, 2.0], [0.5, 0.5]),
    ([1.0, 2.0, 3.0], [0.5, np.inf]),
    ([np.nan], []),
])
def test_from_tridiagonal_rejects_non_finite_entries(diag, off):
    with pytest.raises(ValueError):
        SpectralCache.from_tridiagonal(np.array(diag), np.array(off))


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_dense_rejects_non_finite_entries(monkeypatch, symmetric, bad):
    # scipy's expm returns NaN without an error, so the check must come
    # before any factorization: in from_dense, which factors a projected H,
    # and (symmetric) in the ground truth of an assembled symmetric A, which
    # factors A by eigh itself
    monkeypatch.setattr(np.linalg, "eig", _raise)
    monkeypatch.setattr(np.linalg, "eigh", _raise)
    monkeypatch.setattr(smallfun, "_fun_by_expm", _raise)
    h = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 4.0]])
    h[1, 2] = h[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        if symmetric:
            ivp = SecondOrderIVP(DenseOperator(h, is_symmetric=True), *np.ones((3, 3)), 1.0)
            with np.errstate(invalid="ignore"):  # assembling A meets inf * 0
                exact_ivp_solution(ivp, 1.0)
        else:
            SpectralCache.from_dense(h)
