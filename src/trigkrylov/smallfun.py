"""Scalar and small-matrix evaluation of the trigonometric integrator functions.

The three generating functions are

    psi(z)   = 2 (1 - cos sqrt(z)) / z
    sigma(z) = sin(sqrt(z)) / sqrt(z)
    phi(z)   = (exp(z) - 1) / z

with value 1 at z = 0.  All are entire and even in sqrt(z), so the branch of
the square root is irrelevant.  ``cos_sqrt(z) = cos(sqrt(z))`` is the extra
function needed for velocity updates (it equals ``1 - z*psi(z)/2``).

Each function has one closed form, exact at 0, and none of them cancels
for small |z|: sigma is sin(s)/s with s = sqrt(z), a quotient of two
quantities that are each accurate to about an ulp; psi is sigma(z/4)^2
by the half-angle identity 1 - cos(s) = 2 sin(s/2)^2, which has no
subtraction left; and phi is expm1(z)/z, where expm1 keeps the digits
that exp(z) - 1 would lose.  All three are checked against a 50-digit
series oracle down to |z| = 5e-324 in the test suite.

Small matrices are evaluated in an eigenbasis H = X diag(lam) X^-1 where
that is accurate, so that f(sH) e1 is one weighted sum over the m
eigenvalues for each scale s.  A Lanczos tridiagonal
(:meth:`SpectralCache.from_tridiagonal`) uses its orthogonal eigenvectors.
A dense Arnoldi H (:meth:`SpectralCache.from_dense`) uses the eigenvectors
from ``np.linalg.eig`` and X^-1 when
kappa_1(X) <= :data:`EIGENBASIS_KAPPA_MAX` (1e3): the eigenbasis evaluation
has a relative error of about kappa(X) u (Higham, Functions of Matrices,
SIAM 2008, sec. 4.5), so the bound keeps it near 1e-13.  The projected matrices of the transport problem have
kappa_1(X) of at most about 50.  The eigenbasis is cached, so that many
evaluation times reuse it.  Any other H, defective or near it, is kept as
it is, and each f(sH) is read from the exponential of an augmented block
matrix (:func:`_fun_by_expm`) in real arithmetic.  That needs no
separation of the eigenvalues, but costs one 3m x 3m (2m x 2m for phi)
``expm`` per scale.

Every solver update and every residual curve is built from one table,
:data:`BRANCH_TERMS`: for each branch kind, its position and velocity
terms, each a (prefactor, function, scale) triple.  The update of a branch
at time t is V_m (prefactor(t) f(scale(t) H) beta e1), and its residual is
h_{m+1,m} times the last entry of the position term's coefficient vector.
:func:`branch_coefficients` evaluates all terms at many times with one
:meth:`SpectralCache.fun_e1` call per term.

The ground truth the solvers are checked against is in
:mod:`trigkrylov.problems`, not here.
"""
from __future__ import annotations

import enum

import numpy as np
import scipy.linalg

#: log of the largest float, the x beyond which exp(x) overflows.
_EXP_MAX = float(np.log(np.finfo(float).max))

#: Largest kappa_1(X) = ||X||_1 ||X^-1||_1 of the unit-column eigenvector
#: matrix of a nonsymmetric H for which f(sH) is evaluated as
#: X f(s Lambda) X^-1.  That evaluation has a relative error of about
#: kappa(X) u (Higham, Functions of Matrices, 2008, sec. 4.5), so at 1e3 it
#: stays near 1e-13, the accuracy the block-exponential fallback is
#: tested to.
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
    """True iff z is a real float array whose every entry is positive (so
    no NaN, no negative and no zero).

    There sigma skips the guarded path (``_prepare`` and the selection of
    the value at 0), whose result would be the closed form on every entry
    anyway.
    """
    return (isinstance(z, np.ndarray) and z.dtype == np.float64 and z.ndim > 0
            and bool((z > 0).all()))


def _sigma_direct(z):
    s = np.sqrt(z)
    return np.sin(s) / s


def sigma(z):
    """sin(sqrt(z))/sqrt(z), elementwise; sigma(0) = 1."""
    if _direct(z):
        return _sigma_direct(z)
    zw, scalar, real_input = _prepare(z)
    zero = zw == 0
    direct = _sigma_direct(np.where(zero, 1.0, zw))
    return _finish(np.where(zero, 1.0, direct), scalar, real_input)


def psi(z):
    """2(1 - cos(sqrt(z)))/z, elementwise; psi(0) = 1.

    Evaluated as sigma(z/4)^2 via the half-angle identity, which avoids the
    cancellation of the 1 - cos form.
    """
    half = sigma(np.divide(z, 4.0))
    return half * half


def phi(z):
    """(exp(z) - 1)/z, elementwise; phi(0) = 1.

    Where exp(z) overflows (Re z > ``_EXP_MAX``) the -1 is below the last
    bit, and phi is exp(z - log z): a finite value while phi itself is,
    beyond that an infinite one with no NaN part.
    (Complex ``expm1`` would multiply its infinite modulus by a zero
    sin(Im z) and give NaN.)
    """
    zw, scalar, real_input = _prepare(z, needs_complex_for_negative=False)
    zero = zw == 0
    big = zw.real > _EXP_MAX
    zsafe = np.where(zero | big, 1.0, zw)
    with np.errstate(over="ignore"):  # phi overflows to inf beyond z ~ 716
        # expm1, also for complex z: exp(z) - 1 loses log10(1/|z|) digits
        direct = np.expm1(zsafe) / zsafe
        if big.any():
            zb = zw[big]
            # at Re z = inf, log z is below the last bit of z, and inf - inf is NaN
            direct[big] = np.exp(np.subtract(zb, np.log(zb), out=zb, where=np.isfinite(zb.real)))
    return _finish(np.where(zero, 1.0, direct), scalar, real_input)


def cos_sqrt(z):
    """cos(sqrt(z)), elementwise.  Equals 1 - z*psi(z)/2; stable everywhere."""
    zw, scalar, real_input = _prepare(z)
    return _finish(np.cos(np.sqrt(zw)), scalar, real_input)


_FUNS = {
    ScalarFunKind.PSI: psi,
    ScalarFunKind.SIGMA: sigma,
    ScalarFunKind.PHI: phi,
    ScalarFunKind.COS: cos_sqrt,
}


def scalar_fun(kind: ScalarFunKind, z):
    """Evaluate one of psi, sigma, phi, cos_sqrt at a scalar or array argument."""
    return _FUNS[kind](z)


def _fun_by_expm(z, kind: ScalarFunKind):
    """f(Z) from the exponential of an augmented block matrix.

    With M = [[0, I, 0], [-Z, 0, I], [0, 0, 0]], x(t) = e^{tM} x(0) solves
    x1'' = -Z x1 + x3, so the first block row of e^M holds cos(sqrt(Z)),
    sigma(Z) and psi(Z)/2; the top-right block of e^[[Z, I], [0, 0]] is
    phi(Z).  Scaling and squaring needs no separation of the eigenvalues of
    Z, so this serves a defective or near-defective Z.
    """
    m = z.shape[0]
    if kind is ScalarFunKind.PHI:
        blk = np.zeros((2 * m, 2 * m), dtype=z.dtype)
        blk[:m, :m] = z
        blk[:m, m:] = np.eye(m)
        return scipy.linalg.expm(blk)[:m, m:]
    blk = np.zeros((3 * m, 3 * m), dtype=z.dtype)
    blk[:m, m:2 * m] = np.eye(m)
    blk[m:2 * m, :m] = -z
    blk[m:2 * m, 2 * m:] = np.eye(m)
    top = scipy.linalg.expm(blk)[:m]
    if kind is ScalarFunKind.COS:
        return top[:, :m]
    if kind is ScalarFunKind.SIGMA:
        return top[:, m:2 * m]
    return 2.0 * top[:, 2 * m:]


class SpectralCache:
    """Reusable factorization of a small matrix H plus the starting scale beta.

    H is held as an eigenbasis, H = X diag(lam) X^-1, when that is
    accurate: symmetric H as Q diag(lam) Q^T (X^-1 = Q^T), general H as the
    eigenvectors from ``np.linalg.eig`` and their inverse when kappa_1(X) is
    at most :data:`EIGENBASIS_KAPPA_MAX`.  Every f(sH) is then a weighted
    sum over the eigenvalues, and one factorization serves many evaluation
    times, which is what the residual-curve sampling needs.  Any other H is
    held as it is (``h_mat`` is set), and each scale s costs one
    :func:`_fun_by_expm` of sH.
    """

    def __init__(self, *, lam=None, q=None, q_inv=None, h_mat=None, beta=1.0):
        self.lam = lam
        self.q = q
        self.h_mat = h_mat
        self.beta = float(beta)
        self.symmetric = h_mat is None and q_inv is None
        self.m = (q if h_mat is None else h_mat).shape[0]
        if h_mat is None:
            self._q_inv = q.T if q_inv is None else q_inv
            # Weights for fast e_m^T f(scale H) e_1 sampling.
            self._w_first = self._q_inv[:, 0]
            self._w_corner = self.q[-1, :] * self._w_first

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
    def from_dense(cls, h_mat, beta=1.0):
        """Factor a dense H by the eigenbasis of ``np.linalg.eig`` when its
        kappa_1(X) is at most :data:`EIGENBASIS_KAPPA_MAX`, else keep H for
        :func:`_fun_by_expm`.  Non-finite entries raise ``ValueError``, since
        ``expm`` would return NaN without an error."""
        h_mat = np.asarray(h_mat, dtype=float)
        if not np.isfinite(h_mat).all():
            raise ValueError("matrix entries must be finite")
        try:
            lam, x = np.linalg.eig(h_mat)
            x_inv = np.linalg.inv(x)
        except np.linalg.LinAlgError:  # no convergence or singular X
            pass
        else:
            kappa = np.linalg.norm(x, 1) * np.linalg.norm(x_inv, 1)
            if kappa <= EIGENBASIS_KAPPA_MAX:
                return cls(lam=lam, q=x, q_inv=x_inv, beta=beta)
        return cls(h_mat=h_mat, beta=beta)

    def fun_e1(self, kind: ScalarFunKind, scales):
        """f(scale*H) @ (beta e_1): shape (m,) for one scale, (S, m) for S scales."""
        scales = np.asarray(scales, dtype=float)
        s = np.atleast_1d(scales)
        if self.h_mat is None:
            vals = scalar_fun(kind, np.multiply.outer(s, self.lam))
            out = ((vals * self._w_first) @ self.q.T).real
        else:
            out = np.array([_fun_by_expm(x * self.h_mat, kind)[:, 0] for x in s])
        out = self.beta * out
        return out[0] if scales.ndim == 0 else out

    def corner_fun_e1(self, kind: ScalarFunKind, scales) -> np.ndarray:
        """e_m^T f(scale*H) (beta e_1) for an array of scales."""
        scales = np.atleast_1d(np.asarray(scales, dtype=float))
        if self.h_mat is None:
            vals = scalar_fun(kind, np.outer(scales, self.lam))
            return self.beta * (np.atleast_2d(vals) @ self._w_corner).real
        return self.beta * np.array([_fun_by_expm(x * self.h_mat, kind)[-1, 0]
                                     for x in scales])


#: kind -> (position term, velocity term) of the projected IVP solution; a
#: term (prefactor, fun, scale) is prefactor(t) fun(scale(t) H) beta e1.
#: The IVPs are u'' = -H u + beta e1 (PSI) and u'' = -H u, u'(0) = beta e1
#: (SIGMA), from rest otherwise; PHI's is the first-order u' = -H u + beta e1,
#: u(0) = 0, which has no velocity term.
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
    (len(ts), terms, m), with one :meth:`SpectralCache.fun_e1` call per term.
    A time so large that t^2 H overflows raises ``RuntimeError``."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    coeffs = np.stack([prefactor(ts)[:, None] * cache.fun_e1(fun, scale(ts))
                       for prefactor, fun, scale in BRANCH_TERMS[kind]], axis=1)
    if not np.all(np.isfinite(coeffs)):
        raise RuntimeError(f"{kind.name.lower()} coefficients are not finite at "
                           f"t = {ts.max():g}: the time span overflows")
    return coeffs
