"""Scalar and small-matrix evaluation of the trigonometric integrator functions.

The three generating functions are

    psi(z)   = 2 (1 - cos sqrt(z)) / z
    sigma(z) = sin(sqrt(z)) / sqrt(z)
    phi(z)   = (exp(z) - 1) / z

with value 1 at z = 0.  All are entire and even in sqrt(z), so the branch of
the square root is irrelevant.  ``cos_sqrt(z) = cos(sqrt(z))`` is the extra
function needed for velocity updates (it equals ``1 - z*psi(z)/2``).

For |z| below ``PADE_THRESHOLD`` the direct formulas are replaced by their
(1,1) Pade approximants, whose coefficients are derived from the Taylor
series and validated against an extended-precision series oracle in the
test suite.

Small matrices are evaluated in an eigenbasis H = X diag(lam) X^-1 where
that is accurate, so that f(sH) e1 is one weighted sum over the m
eigenvalues for each scale s.  Symmetric (tridiagonal) H uses its
orthogonal eigenvectors.  Nonsymmetric H uses the eigenvectors from
``np.linalg.eig`` and X^-1 when kappa_1(X) <= :data:`EIGENBASIS_KAPPA_MAX`
(1e3): the eigenbasis evaluation has a relative error of about kappa(X) u
(Higham, Functions of Matrices, SIAM 2008, sec. 4.5), so the bound keeps it
near 1e-13.  The projected matrices of the transport problem have
kappa_1(X) of at most about 50.  Any other H falls back to a complex Schur
form H = Q T Q^H with the Parlett recurrence.  Either factorization is
cached, so that many evaluation times reuse it.

The Parlett recurrence for f(sT) is scale-free: in column j the scale s
multiplies both the system sT[:j,:j] - s T[j,j] I and its right-hand side,
so it cancels.  Every scale therefore shares the m - 1 triangular systems
of the unscaled T, and only the diagonal values f(s T[j,j]) differ.
:func:`parlett_batched` evaluates a whole set of scales (all sample times
of a residual curve) with one triangular solve per column.  Clusters are
checked once per factorization, on the diagonal of the unscaled T, so a
scale of 0 or a tiny scale does not make distinct eigenvalues look
confluent.  A T with confluent diagonal entries falls back to
:func:`parlett_fun_triangular`, one scale at a time, which handles adjacent
confluent pairs by divided differences and longer clusters through the
exponential of an augmented block matrix.

Every solver update and every residual curve is built from one table,
:data:`BRANCH_TERMS`: for each branch kind, its position and velocity
terms, each a (prefactor, function, scale) triple.  The update of a branch
at time t is V_m (prefactor(t) f(scale(t) H) beta e1), and its residual is
h_{m+1,m} times the last entry of the position term's coefficient vector.
:func:`branch_coefficients` evaluates all terms at many times with one
:meth:`SpectralCache.fun_e1` call per term.
"""
from __future__ import annotations

import enum

import numpy as np
import scipy.linalg
import scipy.sparse

from . import linop

PADE_THRESHOLD = 1e-3

#: Separation below which triangular diagonal entries count as confluent.
PARLETT_CLUSTER_TOL = 1e-8

#: Largest kappa_1(X) = ||X||_1 ||X^-1||_1 of the unit-column eigenvector
#: matrix of a nonsymmetric H for which f(sH) is evaluated as
#: X f(s Lambda) X^-1.  That evaluation has a relative error of about
#: kappa(X) u (Higham, Functions of Matrices, 2008, sec. 4.5), so at 1e3 it
#: stays near 1e-13, the accuracy the Schur-Parlett path is tested to.
EIGENBASIS_KAPPA_MAX = 1e3


class ScalarFunKind(enum.Enum):
    PSI = "psi"
    SIGMA = "sigma"
    PHI = "phi"
    COS = "cos"


def _prepare(z, needs_complex_for_negative=True):
    z = np.asarray(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    real_input = not np.iscomplexobj(z)
    if real_input:
        z = z.astype(float)
        if needs_complex_for_negative and np.any(z < 0):
            z = z.astype(complex)
    return z, scalar, real_input


def _finish(out, scalar, real_input):
    if real_input and np.iscomplexobj(out):
        out = out.real
    return out[0] if scalar else out


def _direct(z) -> bool:
    """True iff z is a real float array whose every entry is at least
    PADE_THRESHOLD (so no NaN, no negative and no small argument).

    There psi and sigma skip the guarded path (``_prepare``, the Pade
    branch and the selection between the two), whose result would be the
    direct formula on every entry anyway.
    """
    return (isinstance(z, np.ndarray) and z.dtype == np.float64 and z.ndim > 0
            and bool((z >= PADE_THRESHOLD).all()))


def _sigma_direct(z):
    s = np.sqrt(z)
    return np.sin(s) / s


def _psi_direct(z):
    s2 = np.sqrt(z) / 2.0
    half = np.sin(s2) / s2
    return half * half


def sigma(z):
    """sin(sqrt(z))/sqrt(z), elementwise; sigma(0) = 1."""
    if _direct(z):
        return _sigma_direct(z)
    zw, scalar, real_input = _prepare(z)
    small = np.abs(zw) < PADE_THRESHOLD
    direct = _sigma_direct(np.where(small, 1.0, zw))
    pade = (1.0 - 7.0 * zw / 60.0) / (1.0 + zw / 20.0)
    return _finish(np.where(small, pade, direct), scalar, real_input)


def psi(z):
    """2(1 - cos(sqrt(z)))/z, elementwise; psi(0) = 1.

    Evaluated as sigma(z/4)^2 via the half-angle identity, which avoids the
    cancellation of the 1 - cos form.
    """
    if _direct(z):
        return _psi_direct(z)
    zw, scalar, real_input = _prepare(z)
    small = np.abs(zw) < PADE_THRESHOLD
    direct = _psi_direct(np.where(small, 1.0, zw))
    pade = (1.0 - zw / 20.0) / (1.0 + zw / 30.0)
    return _finish(np.where(small, pade, direct), scalar, real_input)


def phi(z):
    """(exp(z) - 1)/z, elementwise; phi(0) = 1.

    The small-argument branch is a six-term Taylor polynomial (truncation
    below 1e-22 at the threshold), since the (1,1) Pade form would lose
    three digits there.
    """
    zw, scalar, real_input = _prepare(z, needs_complex_for_negative=False)
    small = np.abs(zw) < PADE_THRESHOLD
    zsafe = np.where(small, 1.0, zw)
    with np.errstate(over="ignore"):  # phi overflows to inf beyond z ~ 709
        # expm1, also for complex z: exp(z) - 1 loses log10(1/|z|) digits
        direct = np.expm1(zsafe) / zsafe
    series = 1.0 + zw * (
        1.0 / 2.0 + zw * (1.0 / 6.0 + zw * (1.0 / 24.0 + zw * (1.0 / 120.0 + zw / 720.0)))
    )
    return _finish(np.where(small, series, direct), scalar, real_input)


def cos_sqrt(z):
    """cos(sqrt(z)), elementwise.  Equals 1 - z*psi(z)/2; stable everywhere."""
    zw, scalar, real_input = _prepare(z)
    return _finish(np.cos(np.sqrt(zw)), scalar, real_input)


def _sigma_prime(z):
    zw, scalar, real_input = _prepare(z)
    small = np.abs(zw) < PADE_THRESHOLD
    zsafe = np.where(small, 1.0, zw)
    direct = (np.cos(np.sqrt(zsafe)) - sigma(zsafe)) / (2.0 * zsafe)
    series = -1.0 / 6.0 + zw / 60.0 - zw * zw / 1680.0
    return _finish(np.where(small, series, direct), scalar, real_input)


def _psi_prime(z):
    zw, scalar, real_input = _prepare(z)
    small = np.abs(zw) < PADE_THRESHOLD
    zsafe = np.where(small, 1.0, zw)
    direct = (sigma(zsafe) - psi(zsafe)) / zsafe
    series = -1.0 / 12.0 + zw / 180.0 - zw * zw / 6720.0
    return _finish(np.where(small, series, direct), scalar, real_input)


def _phi_prime(z):
    zw, scalar, real_input = _prepare(z, needs_complex_for_negative=False)
    small = np.abs(zw) < PADE_THRESHOLD
    zsafe = np.where(small, 1.0, zw)
    direct = (np.exp(zsafe) - phi(zsafe)) / zsafe
    series = 0.5 + zw / 3.0 + zw * zw / 8.0
    return _finish(np.where(small, series, direct), scalar, real_input)


def _cos_sqrt_prime(z):
    return -sigma(z) / 2.0


_FUNS = {
    ScalarFunKind.PSI: (psi, _psi_prime),
    ScalarFunKind.SIGMA: (sigma, _sigma_prime),
    ScalarFunKind.PHI: (phi, _phi_prime),
    ScalarFunKind.COS: (cos_sqrt, _cos_sqrt_prime),
}


def scalar_fun(kind: ScalarFunKind, z):
    """Evaluate one of psi, sigma, phi, cos_sqrt at a scalar or array argument."""
    return _FUNS[kind][0](z)


def parlett_batched(t_mat, fvals):
    """f(s_k T) for every sample k, from the unscaled upper-triangular T.

    ``fvals`` has shape (S, m); row k holds f(s_k d) for the diagonal d of
    T.  Returns F of shape (S, m, m).  Column j of f(sT) solves
    (sT[:j,:j] - s d_j I) x = F[:j,:j] (sT[:j,j]) - f(s d_j) (sT[:j,j]), where
    the scale s cancels, so all samples share the unscaled system of column j
    and one triangular solve takes all S right-hand sides.  The diagonal of
    T must be free of repeated entries.
    """
    t_mat = np.asarray(t_mat, dtype=complex)
    fvals = np.atleast_2d(fvals)
    m = t_mat.shape[0]
    d = np.diagonal(t_mat)
    if np.unique(d).size < m:
        raise np.linalg.LinAlgError("repeated diagonal entry: singular Parlett system")
    f = np.zeros((fvals.shape[0], m, m), dtype=complex)
    f[:, np.arange(m), np.arange(m)] = fvals
    shifted = t_mat.copy()
    for j in range(1, m):
        col = t_mat[:j, j]
        rhs = f[:, :j, :j] @ col - fvals[:, j, None] * col
        np.fill_diagonal(shifted, d - d[j])
        # BLAS trsm, not solve_triangular (LAPACK trtrs): trtrs wakes the
        # BLAS thread pool even for these small systems, and interleaved
        # with the matmul above each solve then costs milliseconds with two
        # BLAS threads; trsm keeps small solves on the calling thread
        f[:, :j, j] = scipy.linalg.blas.ztrsm(1.0, shifted[:j, :j], rhs.T).T
    return f


def _has_confluent_diagonal(d, ctol: float = PARLETT_CLUSTER_TOL) -> bool:
    """True iff two entries of d lie closer than ctol."""
    iu, ju = np.triu_indices(len(d), k=1)
    return bool(np.any(np.abs(d[iu] - d[ju]) < ctol))


def _fun_by_expm(z, kind: ScalarFunKind):
    """f(Z) from the exponential of an augmented block matrix.

    With M = [[0, I, 0], [-Z, 0, I], [0, 0, 0]], x(t) = e^{tM} x(0) solves
    x1'' = -Z x1 + x3, so the first block row of e^M holds cos(sqrt(Z)),
    sigma(Z) and psi(Z)/2; the top-right block of e^[[Z, I], [0, 0]] is
    phi(Z).  Scaling and squaring needs no separation of the eigenvalues of
    Z, so this serves a T whose diagonal has a cluster of any length.
    """
    m = z.shape[0]
    if kind is ScalarFunKind.PHI:
        blk = np.zeros((2 * m, 2 * m), dtype=complex)
        blk[:m, :m] = z
        blk[:m, m:] = np.eye(m)
        return scipy.linalg.expm(blk)[:m, m:]
    blk = np.zeros((3 * m, 3 * m), dtype=complex)
    blk[:m, m:2 * m] = np.eye(m)
    blk[m:2 * m, :m] = -z
    blk[m:2 * m, 2 * m:] = np.eye(m)
    top = scipy.linalg.expm(blk)[:m]
    if kind is ScalarFunKind.COS:
        return top[:, :m]
    if kind is ScalarFunKind.SIGMA:
        return top[:, m:2 * m]
    return 2.0 * top[:, 2 * m:]


def parlett_fun_triangular(t_mat, kind: ScalarFunKind, scale: float = 1.0,
                           ctol: float = PARLETT_CLUSTER_TOL):
    """Evaluate f(scale*T) for upper-triangular complex T.

    Adjacent confluent diagonal pairs use the 2x2 Sylvester-block (divided
    difference) formula inside the Parlett recurrence.  A cluster that is
    not an adjacent pair would make the recurrence divide by separations
    below ctol, so such a T is evaluated by :func:`_fun_by_expm` instead.
    """
    fun, dfun = _FUNS[kind]
    t_scaled = np.asarray(t_mat, dtype=complex) * scale
    m = t_scaled.shape[0]
    d = np.diagonal(t_scaled).copy()
    if m == 1:
        return np.array([[fun(d[0])]], dtype=complex)

    sep = np.abs(d[:, None] - d[None, :])
    iu, ju = np.triu_indices(m, k=1)
    close = sep[iu, ju] < ctol
    if np.any(close & (ju - iu > 1)):
        return _fun_by_expm(t_scaled, kind)
    fvals = fun(d)
    if not np.any(close):
        return parlett_batched(t_scaled, fvals)[0]

    # Scalar recurrence with divided-difference handling of adjacent pairs.
    f = np.zeros_like(t_scaled)
    np.fill_diagonal(f, fvals)
    for off in range(1, m):
        for i in range(m - off):
            j = i + off
            num = t_scaled[i, j] * (fvals[i] - fvals[j])
            if off > 1:
                num += f[i, i + 1:j] @ t_scaled[i + 1:j, j]
                num -= t_scaled[i, i + 1:j] @ f[i + 1:j, j]
            den = d[i] - d[j]
            if abs(den) >= ctol:
                f[i, j] = num / den
            else:  # an adjacent pair: every other close pair went to expm
                f[i, j] = t_scaled[i, j] * dfun((d[i] + d[j]) / 2.0)
    return f


def _looks_symmetric(h_mat) -> bool:
    """Symmetric to 1e-13 of ||H||_inf."""
    scale = np.linalg.norm(h_mat, np.inf) or 1.0
    return bool(np.all(np.abs(h_mat - h_mat.T) <= 1e-13 * scale))


class SpectralCache:
    """Reusable factorization of a small matrix H plus the starting scale beta.

    H is held as an eigenbasis, H = X diag(lam) X^-1, when that is
    accurate: symmetric H as Q diag(lam) Q^T (X^-1 = Q^T), general H as the
    eigenvectors from ``np.linalg.eig`` and their inverse when kappa_1(X) is
    at most :data:`EIGENBASIS_KAPPA_MAX`.  Every f(sH) is then a weighted
    sum over the eigenvalues.  Any other H is held as a complex Schur form
    Q T Q^H (``t_mat`` is set), and whether T has confluent diagonal entries
    is decided once, on the unscaled T: if not, every scale goes through
    :func:`parlett_batched`.  One factorization serves many evaluation
    times, which is what the residual-curve sampling needs.
    """

    def __init__(self, *, lam=None, q=None, q_inv=None, t_mat=None, beta=1.0):
        self.lam = lam
        self.q = q
        self.t_mat = t_mat
        self.beta = float(beta)
        self.symmetric = t_mat is None and q_inv is None
        self.m = (q.shape[0] if q is not None else 0)
        if t_mat is None:
            self._q_inv = q.T if q_inv is None else q_inv
            # Weights for fast e_m^T f(scale H) e_1 sampling.
            self._w_first = self._q_inv[:, 0]
            self._w_corner = self.q[-1, :] * self._w_first
        else:
            self._qh_e1 = self.q[0, :].conj()
            self._confluent = _has_confluent_diagonal(np.diagonal(t_mat))

    @classmethod
    def from_tridiagonal(cls, diag, offdiag, beta=1.0):
        """Eigendecomposition of the symmetric tridiagonal (diag, offdiag).

        Calls LAPACK ``dstevd``, the driver ``scipy.linalg.eigh_tridiagonal``
        selects for a full spectrum, without that wrapper's argument
        handling.  Non-finite entries raise ``ValueError`` and a LAPACK
        failure raises ``LinAlgError``.
        """
        diag = np.asarray(diag, dtype=float)
        offdiag = np.asarray(offdiag, dtype=float)
        if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
            raise ValueError("tridiagonal entries must be finite")
        if diag.size == 1:
            lam, q = diag.copy(), np.ones((1, 1))
        else:
            lam, q, info = scipy.linalg.lapack.dstevd(diag, offdiag, compute_v=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"dstevd failed with info = {info}")
        return cls(lam=lam, q=q, beta=beta)

    @classmethod
    def from_dense(cls, h_mat, beta=1.0, symmetric=None, eigenbasis=True):
        """Factor a dense H: ``eigh`` when symmetric (detected when
        ``symmetric`` is None), else the eigenbasis of ``np.linalg.eig``
        when its kappa_1(X) is at most :data:`EIGENBASIS_KAPPA_MAX`, else
        (or with ``eigenbasis=False``) the complex Schur form."""
        h_mat = np.asarray(h_mat, dtype=float)
        if symmetric is None:
            symmetric = _looks_symmetric(h_mat)
        if symmetric:
            lam, q = np.linalg.eigh(h_mat)
            return cls(lam=lam, q=q, beta=beta)
        if eigenbasis:
            try:
                lam, x = np.linalg.eig(h_mat)
                x_inv = np.linalg.inv(x)
            except np.linalg.LinAlgError:  # non-finite H or singular X
                pass
            else:
                kappa = np.linalg.norm(x, 1) * np.linalg.norm(x_inv, 1)
                if kappa <= EIGENBASIS_KAPPA_MAX:
                    return cls(lam=lam, q=x, q_inv=x_inv, beta=beta)
        t_mat, q = scipy.linalg.schur(h_mat, output="complex")
        return cls(t_mat=t_mat, q=q, beta=beta)

    def _fun_of_t(self, kind, scales):
        """f(s T) for each s in scales, shape (S, m, m)."""
        if not self._confluent:
            fvals = scalar_fun(kind, np.multiply.outer(scales, np.diagonal(self.t_mat)))
            return parlett_batched(self.t_mat, fvals)
        return np.stack([parlett_fun_triangular(self.t_mat, kind, s) for s in scales])

    def apply_fun(self, kind: ScalarFunKind, scale: float, b):
        """f(scale*H) @ b, for b of shape (m,) or (m, k)."""
        b = np.asarray(b)
        if self.t_mat is None:
            fl = scalar_fun(kind, scale * self.lam)
            out = self.q @ (fl * (self._q_inv @ b).T).T
        else:
            out = self.q @ (self._fun_of_t(kind, [scale])[0] @ (self.q.conj().T @ b))
        return out.real if not np.iscomplexobj(b) else out

    def fun_e1(self, kind: ScalarFunKind, scales):
        """f(scale*H) @ (beta e_1): shape (m,) for one scale, (S, m) for S scales."""
        scales = np.asarray(scales, dtype=float)
        s = np.atleast_1d(scales)
        if self.t_mat is None:
            vals = scalar_fun(kind, np.multiply.outer(s, self.lam))
            out = ((vals * self._w_first) @ self.q.T).real
        else:
            out = ((self._fun_of_t(kind, s) @ self._qh_e1) @ self.q.T).real
        out = self.beta * out
        return out[0] if scales.ndim == 0 else out

    def corner_fun_e1(self, kind: ScalarFunKind, scales) -> np.ndarray:
        """e_m^T f(scale*H) (beta e_1) for an array of scales."""
        scales = np.atleast_1d(np.asarray(scales, dtype=float))
        if self.t_mat is None:
            vals = scalar_fun(kind, np.outer(scales, self.lam))
            return self.beta * (np.atleast_2d(vals) @ self._w_corner).real
        f_e1 = self._fun_of_t(kind, scales) @ self._qh_e1
        # an elementwise sum, not a matmul: an (S, m) gemv would run on the
        # BLAS thread pool between the Parlett solves of consecutive calls
        return self.beta * (f_e1 * self.q[-1, :]).sum(axis=1).real


def matfun_action(h_mat, kind: ScalarFunKind, scale: float, b,
                  cache: SpectralCache | None = None, symmetric=None):
    """f(scale*H) @ b for a small matrix H, where f is the selected function.

    See :meth:`SpectralCache.from_dense` for the choice between the
    eigenbasis and the Schur form with the Parlett recurrence.
    """
    if cache is None:
        cache = SpectralCache.from_dense(h_mat, beta=1.0, symmetric=symmetric)
    return cache.apply_fun(kind, scale, b)


#: kind -> (position term, velocity term) of the projected IVP solution; a
#: term (prefactor, fun, scale) is prefactor(t) fun(scale(t) H) beta e1.
#: PHI is first order and has no velocity term.
BRANCH_TERMS = {
    ScalarFunKind.PSI: (
        (lambda t: 0.5 * t * t, ScalarFunKind.PSI, np.square),
        (lambda t: t, ScalarFunKind.SIGMA, np.square),
    ),
    ScalarFunKind.SIGMA: (
        (lambda t: t, ScalarFunKind.SIGMA, np.square),
        (np.ones_like, ScalarFunKind.COS, np.square),
    ),
    ScalarFunKind.PHI: ((lambda t: t, ScalarFunKind.PHI, np.negative),),
}


def branch_coefficients(cache: SpectralCache, kind: ScalarFunKind, ts) -> np.ndarray:
    """Coefficient vectors of every term of ``kind`` at each time, shape
    (len(ts), terms, m), with one :meth:`SpectralCache.fun_e1` call per term."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return np.stack([prefactor(ts)[:, None] * cache.fun_e1(fun, scale(ts))
                     for prefactor, fun, scale in BRANCH_TERMS[kind]], axis=1)


def projected_solution(h_mat, kind: ScalarFunKind, beta: float, t: float,
                       cache: SpectralCache | None = None):
    """Solution u(t) of the projected IVP for the selected function kind.

    PSI:   u'' = -H u + beta e1, u(0) = u'(0) = 0      ->  u(t) = t^2/2 psi(t^2 H) beta e1
    SIGMA: u'' = -H u, u(0) = 0, u'(0) = beta e1       ->  u(t) = t sigma(t^2 H) beta e1
    PHI:   u'  = -H u + beta e1, u(0) = 0              ->  u(t) = t phi(-t H) beta e1
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if kind not in BRANCH_TERMS:
        raise ValueError(f"no projected IVP for kind {kind}")
    if cache is None:
        cache = SpectralCache.from_dense(h_mat, beta=beta)
    return branch_coefficients(cache, kind, t)[0, 0]


def projected_velocity(h_mat, kind: ScalarFunKind, beta: float, t: float,
                       cache: SpectralCache | None = None):
    """u'(t) for the second-order projected IVPs (PSI and SIGMA kinds)."""
    if len(BRANCH_TERMS.get(kind, ())) < 2:
        raise ValueError(f"no velocity formula for kind {kind}")
    if cache is None:
        cache = SpectralCache.from_dense(h_mat, beta=beta)
    return branch_coefficients(cache, kind, t)[0, 1]


def exact_ivp_solution(ivp, t: float, cap: int = 4096):
    """Ground-truth (y(t), y'(t)) of y'' = -A y + g from the assembled A.

    A symmetric A is factored by ``eigh``, and

        y(t)  = u + t^2/2 psi(t^2 A)(g - A u) + t sigma(t^2 A) v
        y'(t) = t sigma(t^2 A)(g - A u) + cos(t sqrt(A)) v.

    A nonsymmetric A goes through none of this module's functions: with s
    the power of two nearest sqrt(||A||_1) (at least 1), (s y, y', 1) solves
    the first-order system with the block

        B = [[0, s I, 0], [-A/s, 0, g], [0, 0, 0]]

    of dimension 2n + 1, so one sparse action exp(t B) (s u, v, 1)
    (``scipy.sparse.linalg.expm_multiply``, Al-Mohy & Higham, SISC 33,
    2011) gives both.  The scaling by s is exact and brings ||B||_1 from
    about ||A||_1 down to about 2 sqrt(||A||_1), the size of the block's
    spectrum, which sets the cost of the action.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    a_mat = linop.assemble_dense(ivp.op, cap=cap)
    if ivp.op.is_symmetric or _looks_symmetric(a_mat):
        w = ivp.g - a_mat @ ivp.u
        cache = SpectralCache.from_dense(a_mat, beta=1.0, symmetric=True)
        t2 = t * t
        # one sigma(t^2 A) serves both w and v
        sig = t * cache.apply_fun(ScalarFunKind.SIGMA, t2, np.column_stack([w, ivp.v]))
        y = ivp.u + 0.5 * t2 * cache.apply_fun(ScalarFunKind.PSI, t2, w) + sig[:, 1]
        yp = sig[:, 0] + cache.apply_fun(ScalarFunKind.COS, t2, ivp.v)
        return y, yp
    # imported here: the solvers never need it, and it adds 2 MB to every process
    import scipy.sparse.linalg

    n = a_mat.shape[0]
    s = 2.0 ** max(0, round(0.5 * np.log2(max(np.linalg.norm(a_mat, 1), 1.0))))
    block = scipy.sparse.bmat([
        [None, s * scipy.sparse.eye(n), None],
        [scipy.sparse.csr_matrix(a_mat / -s), None, scipy.sparse.csr_matrix(ivp.g[:, None])],
        [None, None, scipy.sparse.csr_matrix((1, 1))],
    ], format="csr")
    z = scipy.sparse.linalg.expm_multiply(
        t * block, np.concatenate([s * ivp.u, ivp.v, [1.0]]), traceA=0.0
    )
    return z[:n] / s, z[n:2 * n]
