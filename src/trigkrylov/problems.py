"""Benchmark problem generators and reference solutions.

Two families: a 3-D wave equation semi-discretized by the seven-point
stencil with homogeneous Dirichlet boundary conditions (isotropic and
strongly anisotropic presets), and a 1-D transport equation with decay
recast as a second-order PDE, whose discretization is nonsymmetric.

The wave reference evaluates every sine mode with numpy's cos and sinc,
and the dense reference of a nonsymmetric operator is the action of the
exponential of its first-order block, so neither shares a function with
the solvers it checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse

from . import linop, smallfun
from .integrators import SecondOrderIVP, SolverConfig, rt_sequential

#: Largest per-dimension grid for the discrete-sine reference (naive DST scale).
SPECTRAL_REFERENCE_CAP = 48


@dataclass
class WaveProblemSpec:
    """3-D wave problem u_tt = kx u_xx + ky u_yy + kz u_zz on the unit cube."""

    nx: int
    ny: int
    nz: int
    kx: float = 1.0
    ky: float = 1.0
    kz: float = 1.0
    ic: str = "isotropic-poly"
    t_final: float = 1.0

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 2:
            raise ValueError("need at least 2 interior points per dimension")
        if min(self.kx, self.ky, self.kz) <= 0:
            raise ValueError("wave coefficients must be positive")
        if self.ic not in ("isotropic-poly", "anisotropic-sines"):
            raise ValueError(f"unknown initial condition selector {self.ic!r}")


def isotropic_wave_spec(n: int, t_final: float = 1.0) -> WaveProblemSpec:
    return WaveProblemSpec(n, n, n, 1.0, 1.0, 1.0, "isotropic-poly", t_final)


def anisotropic_wave_spec(n: int, t_final: float = 1.0) -> WaveProblemSpec:
    return WaveProblemSpec(n, n, n, 1e4, 1e2, 1.0, "anisotropic-sines", t_final)


def _grids(spec: WaveProblemSpec):
    axes = []
    for n in (spec.nx, spec.ny, spec.nz):
        h = 1.0 / (n + 1)
        axes.append(h * np.arange(1, n + 1))
    return axes  # x, y, z interior coordinates


def _initial_fields(spec: WaveProblemSpec):
    """Sample u0, v0 at interior grid points, x-fastest ordering."""
    x, y, z = _grids(spec)
    if spec.ic == "isotropic-poly":
        u0 = (
            (1.0 - x[None, None, :]) ** 3
            * (1.0 - y[None, :, None] ** 2)
            * (1.0 - z[:, None, None] ** 2)
        )
        v0 = np.ones_like(u0)
        return u0, v0
    sx = [np.sin(i * np.pi * x) for i in (1, 2, 3)]
    sy = [np.sin(j * np.pi * y) for j in (1, 2, 3)]
    sz = [np.sin(k * np.pi * z) for k in (1, 2, 3)]
    u0 = np.zeros((spec.nz, spec.ny, spec.nx))
    v0 = np.zeros_like(u0)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                mode = sz[k - 1][:, None, None] * sy[j - 1][None, :, None] * sx[i - 1][None, None, :]
                lam = np.pi**2 * (i * i * spec.kx + j * j * spec.ky + k * k * spec.kz)
                u0 += mode
                v0 += lam * mode
    return u0, v0


def build_wave3d(spec: WaveProblemSpec) -> SecondOrderIVP:
    """Assemble the SPD seven-point wave operator and sampled initial data."""
    op = linop.KroneckerSum3D(
        linop.dirichlet_laplacian_1d(spec.nx),
        linop.dirichlet_laplacian_1d(spec.ny),
        linop.dirichlet_laplacian_1d(spec.nz),
        kx=spec.kx, ky=spec.ky, kz=spec.kz,
    )
    u0, v0 = _initial_fields(spec)
    return SecondOrderIVP(op, u0.ravel(), v0.ravel(), None, spec.t_final)


def _sine_eigenvalues(n: int) -> np.ndarray:
    h = 1.0 / (n + 1)
    p = np.arange(1, n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(p * np.pi * h))


def spectral_reference_wave3d(spec: WaveProblemSpec, t: float,
                              cap: int = SPECTRAL_REFERENCE_CAP):
    """(y(t), y'(t)) via the discrete sine eigenbasis of the stencil.

    Exact for the discretized problem: every mode evolves by cos(t sqrt(lam))
    and sin(t sqrt(lam))/sqrt(lam) of its (positive) eigenvalue lam, taken
    from numpy rather than from the functions the solvers use.  Usable as
    ground truth up to the DST-size cap.
    """
    if max(spec.nx, spec.ny, spec.nz) > cap:
        raise ValueError(f"grid exceeds spectral reference cap {cap}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    u0, v0 = _initial_fields(spec)
    lam = (
        spec.kz * _sine_eigenvalues(spec.nz)[:, None, None]
        + spec.ky * _sine_eigenvalues(spec.ny)[None, :, None]
        + spec.kx * _sine_eigenvalues(spec.nx)[None, None, :]
    )
    uh = scipy.fft.dstn(u0, type=1)
    vh = scipy.fft.dstn(v0, type=1)
    t_sqrt_lam = t * np.sqrt(lam)
    cos_vals = np.cos(t_sqrt_lam)
    tsig = t * np.sinc(t_sqrt_lam / np.pi)  # t sigma(t^2 lam)
    yh = cos_vals * uh + tsig * vh
    yph = -lam * tsig * uh + cos_vals * vh
    y = scipy.fft.idstn(yh, type=1)
    yp = scipy.fft.idstn(yph, type=1)
    return y.ravel(), yp.ravel()


@dataclass
class TransportProblemSpec:
    """1-D transport with decay u_t = -c u_x - alpha u, second-order form.

    The second-order recast is u_tt = c^2 u_xx + 2 c alpha u_x + alpha^2 u
    with initial velocity u0' - alpha u0.  ``velocity="characteristic"``
    switches the initial velocity to -c u0' - alpha u0 (the time derivative
    implied by the first-order equation); the default keeps the recast form.
    """

    nx: int
    c: float = 0.3
    alpha: float = 1.0
    t_final: float = 1.0
    velocity: str = "as-printed"

    def __post_init__(self):
        if self.nx < 4:
            raise ValueError("need at least 4 interior points")
        if self.c <= 0 or self.alpha <= 0:
            raise ValueError("c and alpha must be positive")
        if self.velocity not in ("as-printed", "characteristic"):
            raise ValueError(f"unknown velocity selector {self.velocity!r}")


def build_transport(spec: TransportProblemSpec) -> SecondOrderIVP:
    """Nonsymmetric operator A = c^2 L - 2 c alpha D - alpha^2 I (L SPD stencil).

    The symmetric part is c^2 L - alpha^2 I >= -alpha^2 I, so a mild
    indefiniteness of at most alpha^2 is inherent to the construction; the
    guard below only rejects operators broken beyond that bound (e.g. a
    sign error in the stencil).
    """
    n = spec.nx
    h = 1.0 / (n + 1)
    c, alpha = spec.c, spec.alpha
    main = np.full(n, 2.0 * c * c / h**2 - alpha * alpha)
    upper = np.full(n - 1, -c * c / h**2 - c * alpha / h)
    lower = np.full(n - 1, -c * c / h**2 + c * alpha / h)
    a_mat = scipy.sparse.diags([lower, main, upper], [-1, 0, 1], format="csr")
    op = linop.SparseCSR(a_mat, is_symmetric=False)

    lam_min_sym = c * c * (2.0 / h**2) * (1.0 - np.cos(np.pi * h)) - alpha * alpha
    norm_est = c * c * 4.0 / h**2 + 2.0 * c * alpha / h + alpha * alpha
    if lam_min_sym < -(alpha * alpha * (1.0 + 1e-8) + 1e-10 * norm_est):
        raise ValueError("transport operator symmetric part indefinite beyond "
                         "the alpha^2 shift; check the stencil")

    x = h * np.arange(1, n + 1)
    u0 = np.exp(-500.0 * (x - 0.5) ** 2)
    d_mat = linop.centered_difference_1d(n)
    du0 = d_mat @ u0
    if spec.velocity == "as-printed":
        v0 = du0 - alpha * u0
    else:
        v0 = -c * du0 - alpha * u0
    return SecondOrderIVP(op, u0, v0, None, spec.t_final)


def reference_solution(ivp: SecondOrderIVP, method: str,
                       wave_spec: WaveProblemSpec | None = None):
    """Ground-truth (y, y') at t_final by one of three routes.

    ``dense`` works on the assembled A (``eigh`` when A is symmetric, the
    action of the exponential of the first-order block otherwise; see
    :func:`smallfun.exact_ivp_solution`), ``spectral`` uses the sine
    eigenbasis (wave problems only), ``tight-tolerance`` runs the sequential
    RT solver at tol 1e-12 with m_max 60 (cases too large for the others;
    not independent of that solver).
    """
    if method == "dense":
        return smallfun.exact_ivp_solution(ivp, ivp.t_final)
    if method == "spectral":
        if wave_spec is None:
            raise ValueError("spectral reference needs the wave problem spec")
        return spectral_reference_wave3d(wave_spec, ivp.t_final)
    if method == "tight-tolerance":
        report = rt_sequential(ivp, SolverConfig(tol=1e-12, m_max=60))
        return report.y, report.v_out
    raise ValueError(f"unknown reference method {method!r}")
