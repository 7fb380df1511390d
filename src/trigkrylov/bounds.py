"""A-priori residual bounds and Chebyshev/Bessel coefficient machinery.

Two families of bounds: general/SPD bounds expressed through the projected
matrix (phi-function growth, respectively min-capped linear growth), and
sharp small-time bounds for operators with spectrum in [0, 1], derived from
the shifted Chebyshev expansions of sin(t sqrt(z))/sqrt(z) and
(1 - cos(t sqrt(z)))/z whose coefficients are alternating Bessel sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .smallfun import phi

#: Tail threshold for the adaptive Chebyshev truncation order.
TAIL_EPS = 1e-16


def bessel_sequence(t: float, n_max: int) -> np.ndarray:
    """J_0(t) .. J_{n_max}(t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return scipy.special.jv(np.arange(n_max + 1), t)


def adaptive_truncation(t: float) -> int:
    """Smallest L with |J_{2L+1}(t)| and (L+1)|J_{2L+2}(t)| below 1e-16."""
    n_max = 2 * (math.ceil(t) + 80) + 2
    seq = bessel_sequence(t, n_max)
    for ell in range((n_max - 2) // 2 + 1):
        if abs(seq[2 * ell + 1]) < TAIL_EPS and (ell + 1) * abs(seq[2 * ell + 2]) < TAIL_EPS:
            return ell
    return (n_max - 2) // 2


def cheb_coeff_sigma(k: int, t: float, trunc: int | None = None) -> float:
    """Shifted Chebyshev coefficient a_k* of sin(t sqrt(z))/sqrt(z) on [0, 1].

    Equals 4 (-1)^k sum_{l=k}^{L} J_{2l+1}(t).  The k = 0 coefficient uses
    the primed-sum convention (the series halves the k = 0 term).
    """
    if k < 0:
        raise ValueError("coefficient index must be nonnegative")
    ell = adaptive_truncation(t) if trunc is None else int(trunc)
    if ell < k:
        return 0.0
    seq = bessel_sequence(t, 2 * ell + 1)
    tail = float(np.sum(seq[2 * k + 1 : 2 * ell + 2 : 2]))
    return 4.0 * (-1.0) ** k * tail


def cheb_coeff_psi(k: int, t: float, trunc: int | None = None) -> float:
    """Shifted Chebyshev coefficient a_k* of (1 - cos(t sqrt(z)))/z on [0, 1].

    Equals 8 (-1)^k sum_{l=0}^{L} (l+1) J_{2(k+l+1)}(t).
    """
    if k < 0:
        raise ValueError("coefficient index must be nonnegative")
    ell = adaptive_truncation(t) if trunc is None else int(trunc)
    seq = bessel_sequence(t, 2 * (k + ell + 1))
    orders = seq[2 * (k + 1) : 2 * (k + ell + 1) + 1 : 2]
    weights = np.arange(1, orders.size + 1, dtype=float)
    return 8.0 * (-1.0) ** k * float(weights @ orders)


@dataclass
class BoundInput:
    """Data feeding the a-priori residual bounds for one decomposition pair.

    ``regime`` selects which bounds are meaningful: "general" (phi bound),
    "spd" (positive definite, lam_min available) or "unit-interval"
    (spectrum in [0, 1] with unit starting norms, small-time bounds apply).
    ``t`` must be finite and nonnegative.
    """

    m: int
    t: float
    h_psi: float = 0.0
    beta_psi: float = 0.0
    h_sigma: float = 0.0
    beta_sigma: float = 0.0
    omega_hat: float | None = None
    lam_min_psi: float | None = None
    lam_min_sigma: float | None = None
    regime: str = "general"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0 <= self.t < math.inf:
            raise ValueError("t must be finite and nonnegative")
        if self.regime not in ("general", "spd", "unit-interval"):
            raise ValueError(f"unknown regime {self.regime!r}")


def bound_prop22(bi: BoundInput) -> float:
    """Residual bound t phi(-t omega_hat) (h_psi beta_psi + h_sigma beta_sigma)."""
    if bi.omega_hat is None:
        raise ValueError("omega_hat required")
    growth = float(phi(-bi.t * bi.omega_hat))
    return bi.t * growth * (bi.h_psi * bi.beta_psi + bi.h_sigma * bi.beta_sigma)


def _live_lam_min(h_beta: float, lam_min: float | None, name: str) -> float:
    """``lam_min`` of a live term (``h_beta != 0``), which must be positive;
    inf for a dead term, whose bound terms are then 0."""
    if h_beta == 0.0:
        return math.inf
    if not (lam_min and lam_min > 0):
        raise ValueError(f"positive lam_min_{name} required")
    return lam_min


def bound_prop23(bi: BoundInput):
    """SPD residual bounds; returns (simple, tight).

    simple = (h_psi beta_psi / lam_min_psi + h_sigma beta_sigma) t
    tight  = h_psi beta_psi  min(t^2/2, t/lam_min_psi, 2/lam_min_psi)
           + h_sigma beta_sigma min(t, 1/sqrt(lam_min_sigma))

    The tight form saturates for large t: the residual cannot grow without
    bound for positive definite operators.  A branch's lam_min is read only
    where its term is live (h beta != 0), and must then be positive; a
    broken-down branch's term is 0 whatever its Ritz value.
    """
    if bi.regime not in ("spd", "unit-interval"):
        raise ValueError("SPD bounds need an SPD regime flag")
    lam_psi = _live_lam_min(bi.h_psi * bi.beta_psi, bi.lam_min_psi, "psi")
    lam_sigma = _live_lam_min(bi.h_sigma * bi.beta_sigma, bi.lam_min_sigma, "sigma")
    simple = (bi.h_psi * bi.beta_psi / lam_psi + bi.h_sigma * bi.beta_sigma) * bi.t
    tight = bi.h_psi * bi.beta_psi * min(
        bi.t * bi.t / 2.0, bi.t / lam_psi, 2.0 / lam_psi
    ) + bi.h_sigma * bi.beta_sigma * min(bi.t, 1.0 / math.sqrt(lam_sigma))
    return simple, tight


def _check_small_time_premises(m: int, t: float):
    if m < 2:
        raise ValueError("small-time bounds require m >= 2")
    if not 0 <= t <= 1:
        raise ValueError("small-time bounds require t in [0, 1]")


def bound_p3(m: int, t: float) -> float:
    """Sigma-branch residual bound 16 (t/2)^(2m-1) / (2m-1)! for spectrum in [0,1]."""
    _check_small_time_premises(m, t)
    return 16.0 * (0.5 * t) ** (2 * m - 1) / math.factorial(2 * m - 1)


def bound_p4(m: int, t: float) -> float:
    """Psi-branch residual bound (128/15) (t/2)^(2m) / (2m)! for spectrum in [0,1]."""
    _check_small_time_premises(m, t)
    return (128.0 / 15.0) * (0.5 * t) ** (2 * m) / math.factorial(2 * m)


def violates(measured: float, bound: float, *, h: float = 1.0, beta: float = 1.0,
             t: float = 1.0) -> bool:
    """Bound-violation predicate with a round-off floor.

    A residual norm h * beta * |e_m^T f(.) e_1| cannot be evaluated below
    roughly eps * h * beta in double precision, while the small-time bounds
    decay superexponentially; comparisons below that floor carry no
    information and are not counted as violations.  A NaN residual or bound
    (an overflowed evaluation) counts as a violation.
    """
    floor = 1e-13 * h * beta * max(1.0, t)
    return not measured <= bound * (1.0 + 1e-9) + floor


def omega_hat_of(h_m: np.ndarray) -> float:
    """-||H_m - I||_2 / 2, the numerical-range shift used by the phi bound."""
    h_m = np.asarray(h_m, dtype=float)
    return -0.5 * float(np.linalg.norm(h_m - np.eye(h_m.shape[0]), 2))


def bound_input_from_decompositions(d_psi, d_sigma, t: float,
                                    regime: str = "general") -> BoundInput:
    """Collect bound inputs from one or two Krylov decompositions."""
    kw = dict(t=t, regime=regime)
    omegas = []
    ms = []
    for name, d in (("psi", d_psi), ("sigma", d_sigma)):
        if d is None:
            continue
        ms.append(d.m)
        kw[f"h_{name}"] = d.h_next
        kw[f"beta_{name}"] = d.beta
        omegas.append(omega_hat_of(d.H_m))
        if regime in ("spd", "unit-interval"):
            kw[f"lam_min_{name}"] = float(np.linalg.eigvalsh(d.H_m)[0])
    kw["omega_hat"] = min(omegas)
    kw["m"] = max(ms)
    return BoundInput(**kw)
