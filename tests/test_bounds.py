import math

import mpmath as mp
import numpy as np
import pytest

from trigkrylov.bounds import (
    BoundInput,
    adaptive_truncation,
    bessel_sequence,
    bound_input_from_decompositions,
    bound_p3,
    bound_p4,
    bound_prop22,
    bound_prop23,
    cheb_coeff_psi,
    cheb_coeff_sigma,
    violates,
)
from trigkrylov.krylov import ResidualCurve, krylov_build
from trigkrylov.linop import DenseOperator
from trigkrylov.smallfun import ScalarFunKind, psi, sigma

mp.mp.dps = 50


def _bessel_series_oracle(k, t):
    """Ascending series for J_k(t); working precision scales with the
    cancellation (terms grow to ~(t/2)^(2i)/i!^2 before collapsing)."""
    with mp.workdps(60 + 2 * int(t)):
        tt = mp.mpf(t)
        half = tt / 2
        total = mp.mpf(0)
        for i in range(0, 400):
            term = (-1) ** i * half ** (k + 2 * i) / (mp.factorial(i) * mp.factorial(k + i))
            total += term
            if i > 5 and abs(term) < mp.mpf(10) ** (-50) * max(abs(total), 1):
                break
        return float(total)


def test_bessel_trivial_values():
    seq = bessel_sequence(0.0, 9)
    assert seq[0] == 1.0
    assert np.all(seq[1::2] == 0.0)
    with pytest.raises(ValueError):
        bessel_sequence(-1.0, 4)


def test_bessel_j1_at_one():
    assert bessel_sequence(1.0, 1)[1] == pytest.approx(0.4400505857449335, abs=1e-12)


@pytest.mark.parametrize("t", [0.001, 0.05, 0.5, 2.0, 17.3, 60.0, 100.0])
def test_bessel_vs_series_oracle(t):
    seq = bessel_sequence(t, 400)
    for k in (0, 1, 2, 5, 23, 120, 400):
        assert abs(seq[k] - _bessel_series_oracle(k, t)) <= 1e-12, (k, t)


def _quadrature_coeff(fun, k, n=2000):
    """Gauss-Chebyshev shifted coefficient a_k*[fun] on [0, 1].

    Nodes x_j = (1 + cos(theta_j))/2 with theta_j the Chebyshev angles; the
    k = 0 term keeps the primed-sum convention (halved) at summation time,
    so the raw coefficient is returned unhalved here.
    """
    j = np.arange(1, n + 1)
    theta = (2 * j - 1) * np.pi / (2 * n)
    x = (1 + np.cos(theta)) / 2  # shifted Chebyshev nodes on [0, 1]
    return (2.0 / n) * np.sum(fun(x) * np.cos(k * theta))


@pytest.mark.parametrize("t", [0.3, 1.0, 2.2, 5.0])
def test_cheb_sigma_vs_quadrature(t):
    fun = lambda z: t * sigma(t * t * z)
    for k in range(0, 21):
        ref = _quadrature_coeff(fun, k)
        assert abs(cheb_coeff_sigma(k, t) - ref) <= 1e-9, (k, t)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.2, 5.0])
def test_cheb_psi_vs_quadrature(t):
    fun = lambda z: 0.5 * t * t * psi(t * t * z)
    for k in range(0, 21):
        ref = _quadrature_coeff(fun, k)
        assert abs(cheb_coeff_psi(k, t) - ref) <= 1e-9, (k, t)


def test_cheb_zero_time():
    for k in range(1, 6):
        assert cheb_coeff_sigma(k, 0.0) == 0.0
        assert cheb_coeff_psi(k, 0.0) == 0.0
    assert cheb_coeff_sigma(0, 0.0) == 0.0


def _reconstruct(coeffs, z):
    ks = np.arange(len(coeffs))
    tk = np.cos(ks * np.arccos(2 * z - 1))
    return 0.5 * coeffs[0] * tk[0] + coeffs[1:] @ tk[1:]


def test_series_reconstruction():
    t, z = 1.0, 0.37
    coeffs = np.array([cheb_coeff_sigma(k, t) for k in range(40)])
    assert abs(_reconstruct(coeffs, z) - t * sigma(t * t * z)) <= 1e-10
    coeffs_p = np.array([cheb_coeff_psi(k, 1.0) for k in range(40)])
    assert abs(_reconstruct(coeffs_p, 0.5) - 0.5 * psi(0.5)) <= 1e-10


def test_reconstruction_tail_decays_monotonically():
    t, z = 2.0, 0.73
    target = t * sigma(t * t * z)
    errs = []
    for order in range(4, 9):
        coeffs = np.array([cheb_coeff_sigma(k, t) for k in range(order)])
        errs.append(abs(_reconstruct(coeffs, z) - target))
    # superexponential decay down to the round-off floor
    assert all(errs[i + 1] < errs[i] or errs[i + 1] <= 1e-14
               for i in range(len(errs) - 1))
    assert errs[-1] <= 1e-7 * errs[0]
    target_p = 0.5 * t * t * psi(t * t * z)
    errs_p = []
    for order in range(4, 9):
        coeffs = np.array([cheb_coeff_psi(k, t) for k in range(order)])
        errs_p.append(abs(_reconstruct(coeffs, z) - target_p))
    assert all(errs_p[i + 1] < errs_p[i] or errs_p[i + 1] <= 1e-14
               for i in range(len(errs_p) - 1))
    assert errs_p[-1] <= 1e-7 * errs_p[0]


def test_adaptive_truncation_tail():
    for t in (0.5, 3.0, 20.0):
        ell = adaptive_truncation(t)
        seq = bessel_sequence(t, 2 * ell + 4)
        assert abs(seq[2 * ell + 1]) < 1e-16
        assert (ell + 1) * abs(seq[2 * ell + 2]) < 1e-16


def test_bound_small_time_spot_values():
    assert bound_p3(2, 1.0) == pytest.approx(16 * 0.5**3 / math.factorial(3), rel=1e-15)
    assert bound_p3(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert bound_p4(2, 1.0) == pytest.approx(128 / 15 * 0.5**4 / math.factorial(4),
                                             rel=1e-15)
    assert bound_p4(2, 1.0) == pytest.approx(0.0222222222, rel=1e-8)
    assert bound_p3(5, 0.0) == 0.0
    assert bound_p4(5, 0.0) == 0.0


def test_bound_small_time_premises():
    with pytest.raises(ValueError):
        bound_p3(1, 0.5)
    with pytest.raises(ValueError):
        bound_p4(3, 1.5)


def test_bound_input_rejects_a_bad_time():
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            BoundInput(m=3, t=t)


def test_bound_prop22_trivial():
    bi = BoundInput(m=3, t=0.0, h_psi=1.0, beta_psi=2.0, h_sigma=0.5,
                    beta_sigma=1.0, omega_hat=-1.0)
    assert bound_prop22(bi) == 0.0
    bi2 = BoundInput(m=3, t=2.0, h_psi=1.0, beta_psi=2.0, h_sigma=0.5,
                     beta_sigma=1.0, omega_hat=0.0)
    assert bound_prop22(bi2) == pytest.approx(2.0 * (2.0 + 0.5))


def test_bound_prop23_trivial_and_errors():
    bi = BoundInput(m=3, t=0.0, h_psi=1.0, beta_psi=1.0, h_sigma=1.0,
                    beta_sigma=1.0, lam_min_psi=2.0, lam_min_sigma=2.0,
                    regime="spd")
    assert bound_prop23(bi) == (0.0, 0.0)
    bad = BoundInput(m=3, t=1.0, h_psi=1.0, beta_psi=1.0, h_sigma=0.0,
                     beta_sigma=0.0, lam_min_psi=-1.0, regime="spd")
    with pytest.raises(ValueError):
        bound_prop23(bad)


def test_tight_bound_below_simple_in_right_regime():
    for lam in (0.5, 1.0, 3.0):
        for t in np.linspace(0.05, 2.0 / lam, 13):
            bi = BoundInput(m=3, t=t, h_psi=0.7, beta_psi=1.3, h_sigma=0.2,
                            beta_sigma=0.9, lam_min_psi=lam, lam_min_sigma=lam,
                            regime="spd")
            simple, tight = bound_prop23(bi)
            assert tight <= simple * (1 + 1e-12)


def test_tight_bound_saturates():
    bi = lambda t: BoundInput(m=3, t=t, h_psi=1.0, beta_psi=1.0, h_sigma=1.0,
                              beta_sigma=1.0, lam_min_psi=4.0, lam_min_sigma=4.0,
                              regime="spd")
    vals = [bound_prop23(bi(t))[1] for t in (5.0, 50.0, 500.0)]
    assert vals[0] == vals[1] == vals[2]  # capped independently of t
    simples = [bound_prop23(bi(t))[0] for t in (5.0, 50.0, 500.0)]
    assert simples[2] > simples[1] > simples[0]


def _unit_interval_instance(rng, n=60):
    lam = np.sort(rng.uniform(0.0, 1.0, n))
    lam[0], lam[-1] = 0.0, 1.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
    w_psi = rng.standard_normal(n)
    w_sigma = rng.standard_normal(n)
    return op, w_psi / np.linalg.norm(w_psi), w_sigma / np.linalg.norm(w_sigma)


def test_small_time_bounds_dominate_measured_residuals():
    rng = np.random.default_rng(101)
    op, w_psi, w_sigma = _unit_interval_instance(rng)
    for m in range(2, 9):
        d_psi = krylov_build(op, w_psi, m)
        d_sigma = krylov_build(op, w_sigma, m)
        c_psi = ResidualCurve(d_psi, ScalarFunKind.PSI)
        c_sigma = ResidualCurve(d_sigma, ScalarFunKind.SIGMA)
        for t in (0.25, 0.5, 1.0):
            assert not violates(c_sigma.value(t), bound_p3(m, t),
                                h=d_sigma.h_next, beta=d_sigma.beta, t=t)
            assert not violates(c_psi.value(t), bound_p4(m, t),
                                h=d_psi.h_next, beta=d_psi.beta, t=t)


def test_phi_bound_dominates_nonsymmetric():
    rng = np.random.default_rng(103)
    n, m = 40, 6
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + 2 * np.eye(n)
    mat += 0.5 * (rng.standard_normal((n, n)) - rng.standard_normal((n, n)).T)
    op = DenseOperator(mat, is_symmetric=False)
    d_psi = krylov_build(op, rng.standard_normal(n), m)
    d_sigma = krylov_build(op, rng.standard_normal(n), m)
    c_psi = ResidualCurve(d_psi, ScalarFunKind.PSI)
    c_sigma = ResidualCurve(d_sigma, ScalarFunKind.SIGMA)
    for t in (0.1, 0.5, 1.0, 2.0):
        bi = bound_input_from_decompositions(d_psi, d_sigma, t, "general")
        measured = c_psi.value(t) + c_sigma.value(t)
        assert not violates(measured, bound_prop22(bi),
                            h=max(d_psi.h_next * d_psi.beta,
                                  d_sigma.h_next * d_sigma.beta), t=t)


def test_violates_roundoff_floor():
    # noise-level measurement against a subnormal bound is not a violation
    assert not violates(1e-17, 1e-25, h=0.3, beta=1.0, t=0.25)
    assert violates(1e-3, 1e-6, h=0.3, beta=1.0, t=0.25)
    # an overflowed (NaN) residual or bound is a violation
    assert violates(math.nan, 1.0)
    assert violates(1e-3, math.nan)
