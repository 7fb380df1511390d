"""Benchmark problem generators, reference solutions and the paper's presets.

Two families: a 3-D wave equation semi-discretized by the seven-point
stencil with homogeneous Dirichlet boundary conditions (isotropic and
strongly anisotropic presets), and a 1-D transport equation with decay
recast as a second-order PDE, whose discretization is nonsymmetric.

The reference rule is written here once, and no solver under test serves
as a reference.  A wave's ground truth evaluates every sine mode with
numpy's cos and sinc.  :func:`exact_ivp_solution` takes a stored sparse
matrix, symmetric or not, and any nonsymmetric operator through the action
of the exponential of the first-order block; a symmetric operator without a
stored matrix is assembled, factored by ``eigh`` and evolved mode by mode
with the wave reference's cos and sinc.  So no route shares a function with
the solvers it checks.

The catalogue of the paper's problems is :func:`preset` (a family on a
grid, with its reference) and :data:`TOL_ADJUST` with :func:`tol_used`
(the per-solver tolerance of the paper's tables); the command line, the
acceptance tests and the tools under ``tools/`` read it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse

from . import linop
from .integrators import SecondOrderIVP

#: Tolerance factor per (family, solver), 1 where absent: Tables 3 and 4 run
#: gautschi 10x tighter and two-pass 10x looser on the anisotropic wave,
#: Table 5 runs first-order 10x looser on transport.
TOL_ADJUST = {("anisotropic", "gautschi"): 0.1, ("anisotropic", "two-pass"): 10.0,
              ("transport", "first-order"): 10.0}


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


def _modal_weights(lam, t):
    """(cos(t sqrt(lam)), t sigma(t^2 lam)) of each eigenvalue lam, as real
    arrays, from numpy's cos and sinc.  A negative lam takes the complex root,
    which gives cosh and sinh(t sqrt(-lam))/sqrt(-lam)."""
    t_root = t * np.sqrt(lam if (lam >= 0).all() else lam.astype(complex))
    return np.cos(t_root).real, (t * np.sinc(t_root / np.pi)).real


def spectral_reference_wave3d(spec: WaveProblemSpec, t: float, cap: float = np.inf):
    """(y(t), y'(t)) via the discrete sine eigenbasis of the stencil.

    Exact for the discretized problem: every mode evolves by cos(t sqrt(lam))
    and sin(t sqrt(lam))/sqrt(lam) of its (positive) eigenvalue lam, taken
    from numpy rather than from the functions the solvers use, at any grid
    (``scipy.fft.dstn`` handles any size); a grid past ``cap`` per
    dimension raises ``ValueError``.
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
    cos_vals, tsig = _modal_weights(lam, t)
    yh = cos_vals * uh + tsig * vh
    yph = -lam * tsig * uh + cos_vals * vh
    y = scipy.fft.idstn(yh, type=1)
    yp = scipy.fft.idstn(yph, type=1)
    return y.ravel(), yp.ravel()


@dataclass
class TransportProblemSpec:
    """1-D transport with decay u_t = -c u_x - alpha u, second-order form.

    The second-order recast is u_tt = c^2 u_xx + 2 c alpha u_x + alpha^2 u
    with initial velocity u0' - alpha u0, as the paper prints it.
    """

    nx: int
    c: float = 0.3
    alpha: float = 1.0
    t_final: float = 1.0

    def __post_init__(self):
        if self.nx < 4:
            raise ValueError("need at least 4 interior points")
        if self.c <= 0 or self.alpha <= 0:
            raise ValueError("c and alpha must be positive")


def build_transport(spec: TransportProblemSpec) -> SecondOrderIVP:
    """Nonsymmetric operator A = c^2 L - 2 c alpha D - alpha^2 I (L SPD stencil).

    The symmetric part is c^2 L - alpha^2 I >= -alpha^2 I, so a mild
    indefiniteness of at most alpha^2 is inherent to the construction.
    """
    n = spec.nx
    h = 1.0 / (n + 1)
    c, alpha = spec.c, spec.alpha
    main = np.full(n, 2.0 * c * c / h**2 - alpha * alpha)
    upper = np.full(n - 1, -c * c / h**2 - c * alpha / h)
    lower = np.full(n - 1, -c * c / h**2 + c * alpha / h)
    a_mat = scipy.sparse.diags([lower, main, upper], [-1, 0, 1], format="csr")
    op = linop.SparseCSR(a_mat, is_symmetric=False)

    x = h * np.arange(1, n + 1)
    u0 = np.exp(-500.0 * (x - 0.5) ** 2)
    v0 = linop.centered_difference_1d(n) @ u0 - alpha * u0
    return SecondOrderIVP(op, u0, v0, None, spec.t_final)


def exact_ivp_solution(ivp: SecondOrderIVP, t: float):
    """Ground-truth (y(t), y'(t)) of y'' = -A y + g from the matrix of A.

    A :class:`~trigkrylov.linop.SparseCSR` operator gives its stored matrix,
    which is never densified; any other operator is assembled densely (n
    matvecs, n <= 4096).  An assembled symmetric A = Q diag(lam) Q^T is
    factored by ``eigh``, and with w = Q^T (g - A u), v^ = Q^T v, the modal
    weights c(t) = cos(t sqrt(lam)) and s(t) = t sigma(t^2 lam) of
    :func:`_modal_weights`, and t^2/2 psi(t^2 lam) = 2 s(t/2)^2,

        y(t)  = u + Q (2 s(t/2)^2 w + s(t) v^)
        y'(t) = Q (s(t) w + c(t) v^).

    Every other A, sparse or nonsymmetric, goes through none of the solvers'
    functions: with s the power of two nearest sqrt(||A||_1) (at least 1),
    (s y, y', 1) solves the first-order system with the block

        B = [[0, s I, 0], [-A/s, 0, g], [0, 0, 0]]

    of dimension 2n + 1, so one sparse action exp(t B) (s u, v, 1)
    (``scipy.sparse.linalg.expm_multiply``, Al-Mohy & Higham, SISC 33,
    2011) gives both.  The scaling by s is exact and brings ||B||_1 from
    about ||A||_1 down to about 2 sqrt(||A||_1), the size of the block's
    spectrum, which sets the cost of the action.  A symmetric assembled A
    keeps ``eigh``, as the action's cost grows with t sqrt(||A||) and a
    small stiff problem at t = 100 takes it seconds.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    sparse = isinstance(ivp.op, linop.SparseCSR)
    a_mat = ivp.op.csr if sparse else linop.assemble_dense(ivp.op)
    if ivp.op.is_symmetric and not sparse:
        if not np.isfinite(a_mat).all():
            raise ValueError("matrix entries must be finite")
        lam, q = np.linalg.eigh(a_mat)
        w, v = q.T @ (ivp.g - a_mat @ ivp.u), q.T @ ivp.v
        cos_vals, tsig = _modal_weights(lam, t)
        tsig_half = _modal_weights(lam, 0.5 * t)[1]
        return ivp.u + q @ (2.0 * tsig_half**2 * w + tsig * v), q @ (tsig * w + cos_vals * v)
    # imported here: the solvers never need it, and it adds 2 MB to every process
    import scipy.sparse.linalg

    n = a_mat.shape[0]
    norm_1 = float(abs(a_mat).sum(axis=0).max())  # ||A||_1, dense or sparse
    s = 2.0 ** max(0, round(0.5 * np.log2(max(norm_1, 1.0))))
    block = scipy.sparse.bmat([
        [None, s * scipy.sparse.eye(n), None],
        [scipy.sparse.csr_matrix(a_mat / -s), None, scipy.sparse.csr_matrix(ivp.g[:, None])],
        [None, None, scipy.sparse.csr_matrix((1, 1))],
    ], format="csr")
    z = scipy.sparse.linalg.expm_multiply(
        t * block, np.concatenate([s * ivp.u, ivp.v, [1.0]]), traceA=0.0
    )
    return z[:n] / s, z[n:2 * n]


def reference_solution(ivp: SecondOrderIVP, method: str):
    """Ground-truth (y, y') at t_final by :func:`exact_ivp_solution`;
    ``method`` must be ``"dense"``.  A wave problem's sine eigenbasis is
    :func:`spectral_reference_wave3d`.
    """
    if method == "dense":
        return exact_ivp_solution(ivp, ivp.t_final)
    raise ValueError(f"unknown reference method {method!r}")


_WAVE_SPECS = {"isotropic": isotropic_wave_spec, "anisotropic": anisotropic_wave_spec}


def preset(family: str, grid: int, t_final: float = 1.0):
    """(build, reference) of one of the paper's problems on ``grid``.

    ``family`` is ``isotropic``, ``anisotropic`` or ``transport``.
    ``build()`` assembles the IVP, and ``reference(ivp)`` gives its
    y(t_final) by a route that no solver under test takes, at every grid:
    the sine eigenbasis for a wave, the block exponential of
    :func:`exact_ivp_solution` (on the stored ``SparseCSR`` matrix, so no
    assembly cap) for transport.
    """
    if family == "transport":
        spec = TransportProblemSpec(grid, t_final=t_final)
        return (lambda: build_transport(spec),
                lambda ivp: exact_ivp_solution(ivp, ivp.t_final)[0])
    if family not in _WAVE_SPECS:
        raise ValueError(f"unknown problem family {family!r}")
    spec = _WAVE_SPECS[family](grid, t_final)
    return (lambda: build_wave3d(spec),
            lambda ivp: spectral_reference_wave3d(spec, ivp.t_final)[0])


def tol_used(family: str, solver: str, tol: float) -> float:
    """The tolerance the paper's tables hand ``solver`` on ``family`` for the
    nominal ``tol``."""
    return tol * TOL_ADJUST.get((family, solver), 1.0)
