"""Arnoldi and Lanczos processes, residual curves and admissible-step search.

The residual of a Krylov approximation to any of the integrator functions
collapses to a scalar multiple of the last basis vector,

    r_m(t) = -h_{m+1,m} (e_m^T u(t)) v_{m+1},

with u(t) the solution of the projected IVP, so its norm is a cheap scalar
function of time once the small projected matrix is factorized.  The
prefactor, function and scale of u(t) for each branch come from
:data:`~trigkrylov.smallfun.BRANCH_TERMS`, the same table the solvers form
their updates from.

A :class:`KrylovProcess` is created with its step cap ``m_max`` and owns one
basis store of ``min(m_max, dim) + 1`` rows, one row per basis vector; an
Arnoldi process also owns one (m_max + 1) x m_max Hessenberg array.  The
three-term mode keeps a store of three rows as a ring, row ``i % 3``
holding v_{i+1}, so it keeps no basis and is not capped at ``dim``.  Inside
a solve the store comes from the solve's :class:`StorePool` (see
:func:`store_pool`), so a new process reuses the memory of a dropped one;
outside, it is a new array.  Every process also owns a scratch vector of
one :data:`CHUNK`.  A step applies A straight into the next row
(``apply(x, out=)``), orthogonalizes that row in place chunk by chunk,
forming each ``coeff * v`` in the scratch so the bits equal those of ``w -
coeff * v``, and so allocates no n-vector.  Where the operator has a
sweep of its own (``KroneckerSum3D``), a Lanczos step's apply subtracts
beta v_{m-1} inside it, with the bits of the separate pass.  Every step
ends by dividing the new row by its norm.  :meth:`KrylovProcess.step`
past the cap raises ``RuntimeError``.  :attr:`KrylovProcess.newest` reads
the newest basis vector in every mode; two-pass Lanczos replays its first
pass's three-term process through it, bit for bit.  A
:class:`KrylovDecomposition` snapshot reads the basis as a view of the
store (``V_m`` and ``V`` are transposed row slices), never a copy, and the
view keeps the store from being reused.  Rows are only ever appended, so
an earlier snapshot stays valid while the process goes on; a three-term
snapshot holds no basis.  A solver passes each branch around as its
:class:`ResidualCurve`, which holds the snapshot, its spectral cache and
the branch kind.
"""
from __future__ import annotations

import contextlib
import sys
import threading

import numpy as np

from .linop import LinearOperator
from .smallfun import BRANCH_TERMS, ScalarFunKind, SpectralCache

#: Sample fractions of the time horizon used by the coarse residual check.
COARSE_FRACTIONS = np.array([1 / 6, 1 / 3, 1 / 2, 2 / 3, 5 / 6, 1.0])

#: Relative breakdown threshold: h_{m+1,m} <= tol * estimate of ||A||.
BREAKDOWN_RTOL = 1e-12

DEFAULT_KMAX_HALVINGS = 40

#: Elements per chunk of a step's elementwise passes: 256 KiB, so that a
#: chunk of each operand and the scratch stay in L2 between the product and
#: the update.
CHUNK = 32768


def chunks(n: int) -> list:
    """The slices of ``range(n)`` in pieces of at most :data:`CHUNK`."""
    return [slice(i, min(i + CHUNK, n)) for i in range(0, n, CHUNK)]


def _refcount(stores, i):
    return sys.getrefcount(stores[i])


#: The reference count of a store that only its pool's list holds.
_FREE = _refcount([np.empty(0)], 0)


class StorePool:
    """Arrays of one solve that are handed out again once nothing refers
    to them.

    Every view of a store (a process's rows, a snapshot's ``V``) has the
    store as its base, so a store whose reference count is the pool's own
    is free.  :meth:`take` returns a free store of the requested shape, or
    drops every free store and allocates a new one, so the pool never holds
    a free store while another is allocated.
    """

    def __init__(self):
        self._stores: list[np.ndarray] = []

    def take(self, rows: int, n: int) -> np.ndarray:
        stores = self._stores
        free = [_refcount(stores, i) == _FREE for i in range(len(stores))]
        for i, is_free in enumerate(free):
            if is_free and stores[i].shape == (rows, n):
                return stores[i]
        stores[:] = [store for store, is_free in zip(stores, free) if not is_free]
        stores.append(np.empty((rows, n)))
        return stores[-1]


_local = threading.local()


@contextlib.contextmanager
def store_pool():
    """Within the block, :func:`new_store` on this thread takes from one
    :class:`StorePool`: the enclosing block's, or a new one dropped on exit."""
    if getattr(_local, "pool", None) is not None:
        yield
        return
    _local.pool = StorePool()
    try:
        yield
    finally:
        _local.pool = None


def new_store(rows: int, n: int) -> np.ndarray:
    """A (rows, n) array of undefined content: from the active
    :func:`store_pool`, or newly allocated outside one."""
    pool = getattr(_local, "pool", None)
    return np.empty((rows, n)) if pool is None else pool.take(rows, n)


class StepSearchStagnation(RuntimeError):
    """Raised when the residual stays above tolerance even for tiny steps."""


class KrylovProcess:
    """Incremental Arnoldi/Lanczos factorization A V_m = V_{m+1} H_m.

    ``mode`` is one of ``"arnoldi"``, ``"lanczos"`` (basis stored) or
    ``"lanczos3"`` (three-term recurrence, only a ring of three basis
    vectors kept); the two Lanczos modes need an operator flagged
    symmetric.  One call to :meth:`step` consumes exactly one matvec;
    at most ``min(m_max, dim)`` steps are taken with a stored basis and at
    most ``m_max`` in three-term mode.
    """

    def __init__(self, op: LinearOperator, w: np.ndarray, m_max: int,
                 mode: str | None = None, reorth: bool = False):
        w = np.asarray(w, dtype=float)
        beta = float(np.linalg.norm(w))
        if beta == 0.0:
            raise ValueError("zero starting vector")
        if m_max < 1:
            raise ValueError("m_max must be at least 1")
        if mode is None:
            mode = "lanczos" if op.is_symmetric else "arnoldi"
        if mode not in ("arnoldi", "lanczos", "lanczos3"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode != "arnoldi" and not op.is_symmetric:
            raise ValueError(f"mode {mode!r} needs an operator flagged symmetric")
        if mode == "lanczos3" and reorth:
            raise ValueError("reorthogonalization requires a stored basis")
        self.op = op
        self.mode = mode
        self.reorth = reorth
        self.beta = beta
        # a stored basis has at most dim independent vectors; the three-term
        # recurrence keeps none, and in floating point it may need more than
        # dim steps to converge
        self.m_max = m_max if mode == "lanczos3" else min(m_max, op.dim)
        self.m = 0
        self.h_next = 0.0
        self.breakdown = False
        self._norm_est = 0.0
        self._chunks = chunks(op.dim)
        self._scratch = np.empty(self._chunks[0].stop)
        # row i % rows holds v_{i+1}: one row per basis vector, or a ring
        # of three in three-term mode
        rows = 3 if mode == "lanczos3" else self.m_max + 1
        self._store = new_store(rows, op.dim)
        np.divide(w, beta, out=self._store[0])
        if mode == "arnoldi":
            self._h = np.zeros((self.m_max + 1, self.m_max))
        else:
            self.alphas: list[float] = []
            self.offdiags: list[float] = []

    def _breakdown_tol(self) -> float:
        return BREAKDOWN_RTOL * max(self._norm_est, 1e-300)

    def step(self) -> None:
        """Extend the decomposition by one Krylov step (one matvec)."""
        if self.breakdown:
            raise RuntimeError("cannot extend after breakdown")
        if self.m >= self.m_max:
            raise RuntimeError(f"step cap m_max = {self.m_max} reached")
        w, h_next = self._step_arnoldi() if self.mode == "arnoldi" else self._step_lanczos()
        self.m += 1
        if h_next <= self._breakdown_tol():
            self.h_next, self.breakdown = 0.0, True
            if self.mode == "arnoldi":
                self._h[self.m, self.m - 1] = 0.0
            else:
                self.offdiags[-1] = 0.0
            w[:] = 0.0  # V's last column is zero after breakdown
        else:
            self.h_next = h_next
            w /= h_next

    def _newest(self) -> np.ndarray:
        return self._store[self.m % len(self._store)]

    @property
    def newest(self) -> np.ndarray:
        """Read-only view of v_{m+1}, the newest basis vector (zero after
        breakdown); the three-term mode reuses it a few steps later."""
        view = self._newest().view()
        view.flags.writeable = False
        return view

    def _subtract(self, w, coeff, v):
        """w -= coeff * v in place, chunk by chunk; each chunk's product is
        formed in the scratch first, so the bits equal those of
        ``w - coeff * v``."""
        scratch = self._scratch
        if len(w) == len(scratch):  # one chunk
            w -= np.multiply(v, coeff, out=scratch)
            return
        for s in self._chunks:
            ws = w[s]
            ws -= np.multiply(v[s], coeff, out=scratch[: s.stop - s.start])

    def _step_arnoldi(self):
        m, store = self.m, self._store
        v_new = self.op.apply(store[m], out=store[m + 1])
        col = self._h[: m + 2, m]
        for _ in range(2 if self.reorth else 1):
            for i, v in enumerate(store[: m + 1]):
                proj = v @ v_new
                col[i] += proj
                self._subtract(v_new, proj, v)
        h_next = float(np.linalg.norm(v_new))
        col[m + 1] = h_next
        self._norm_est = max(self._norm_est, float(np.linalg.norm(col)))
        return v_new, h_next

    def _step_lanczos(self):
        m, store = self.m, self._store
        rows = len(store)
        v_prev, v_cur, w = store[(m - 1) % rows], store[m % rows], store[(m + 1) % rows]
        if m == 0:
            self.op.apply(v_cur, out=w)
        elif not self.op._apply_fused(v_cur, w, self.offdiags[-1], v_prev):
            self.op.apply(v_cur, out=w)
            self._subtract(w, self.offdiags[-1], v_prev)
        alpha = float(w @ v_cur)
        self._subtract(w, alpha, v_cur)
        if self.reorth:
            for v in store[: m + 1]:
                self._subtract(w, v @ w, v)
        h_next = float(np.linalg.norm(w))
        self.alphas.append(alpha)
        self.offdiags.append(h_next)
        self._norm_est = max(
            self._norm_est,
            abs(alpha) + h_next + (self.offdiags[-2] if m > 0 else 0.0),
        )
        return w, h_next

    def snapshot(self) -> "KrylovDecomposition":
        return KrylovDecomposition(self)


class KrylovDecomposition:
    """Snapshot of a Krylov process: basis, projected matrix, h_next.

    Coefficient data is copied at snapshot time, so the snapshot stays valid
    even if the process is extended afterwards.  The basis is a view of the
    process's store, whose rows are only ever appended; a three-term
    snapshot holds no basis, since its ring is overwritten.
    """

    def __init__(self, process: KrylovProcess):
        self.mode = process.mode
        self.beta = process.beta
        self.m = process.m
        self.h_next = process.h_next
        self.breakdown = process.breakdown
        self._store = None if process.mode == "lanczos3" else process._store
        if process.mode == "arnoldi":
            self._h_square = process._h[: self.m, : self.m].copy()
            self._tridiag = None
        else:
            self._h_square = None
            self._tridiag = (np.array(process.alphas), np.array(process.offdiags[:-1]))

    def _rows(self, count: int) -> np.ndarray:
        if self._store is None:
            raise ValueError("three-term mode does not store the basis")
        view = self._store[:count].T
        view.flags.writeable = False  # a write would change the process's basis
        return view

    @property
    def V(self) -> np.ndarray:
        """Basis with m+1 columns (the last one is zero after breakdown)."""
        return self._rows(self.m + 1)

    @property
    def V_m(self) -> np.ndarray:
        return self._rows(self.m)

    @property
    def H_m(self) -> np.ndarray:
        if self._h_square is None:
            diag, off = self._tridiag
            h = np.diag(diag)
            if self.m > 1:
                h += np.diag(off, 1) + np.diag(off, -1)
            self._h_square = h
        return self._h_square

    def spectral_cache(self) -> SpectralCache:
        """Factor the projected matrix: a Lanczos snapshot by its
        tridiagonal, an Arnoldi snapshot by :meth:`SpectralCache.from_dense`."""
        if self._tridiag is not None:
            return SpectralCache.from_tridiagonal(*self._tridiag, beta=self.beta)
        return SpectralCache.from_dense(self._h_square, beta=self.beta)


class ResidualCurve:
    """Evaluator of t -> ||r_m(t)|| = h_{m+1,m} |e_m^T u(t)| for one branch."""

    def __init__(self, decomposition, kind: ScalarFunKind):
        if kind not in BRANCH_TERMS:
            raise ValueError(f"no residual curve for kind {kind}")
        self.decomposition = decomposition
        self.kind = kind
        self.h_next = decomposition.h_next
        self.cache = decomposition.spectral_cache()

    def values(self, ts) -> np.ndarray:
        """The residual norms at ``ts``; NaN or inf where the projected
        function overflows, which every check counts as a violation."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self.h_next == 0.0:
            return np.zeros(ts.shape)
        prefactor, fun, scale = BRANCH_TERMS[self.kind][0]
        # infinities of different phase sum to NaN in the corner's product
        with np.errstate(over="ignore", invalid="ignore"):
            corner = self.cache.corner_fun_e1(fun, scale(ts))
            return self.h_next * np.abs(prefactor(ts) * corner)

    def value(self, t: float) -> float:
        return float(self.values(t)[0])


class CombinedResidualCurve:
    """Pointwise sum of several residual curves (triangle-inequality bound)."""

    def __init__(self, *curves):
        self.curves = curves

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros(ts.shape)
        for c in self.curves:
            out += c.values(ts)
        return out

    def value(self, t: float) -> float:
        return float(self.values(t)[0])


def coarse_residual_check(curve, t: float, tol: float) -> bool:
    """True iff the residual stays below tol on the six coarse samples of [0, t]."""
    if t <= 0:
        raise ValueError("t must be positive")
    return bool(np.max(curve.values(t * COARSE_FRACTIONS)) <= tol)


def confirm_admissible(curve, t: float, tol: float) -> bool:
    """Confirm max_{s in [0,t]} ||r_m(s)|| <= tol on two staggered fine grids
    of 100 points each.

    The coarse samples are an arithmetic progression in phase, so a
    single-frequency residual curve (small m) can alias entirely below
    tolerance while spiking in between; the second grid is offset by the
    irrational fraction 1/pi to break any such phase lock.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    js = np.arange(1, 101, dtype=float)
    grid = np.concatenate([t * js / 100.0, t * (js - 1.0 / np.pi) / 100.0])
    return bool(np.max(curve.values(grid)) <= tol)


def find_largest_admissible_step(curve, t: float, tol: float) -> float:
    """Largest step delta in [0, t] on which the residual stays below tol.

    The base resolution is t/100; it is halved, at most
    :data:`DEFAULT_KMAX_HALVINGS` times, until the residual at the first
    sample is admissible, then the fine grid is scanned until the
    first violation.  A tie (residual == tol) counts as admissible and a NaN
    sample (an overflowed evaluation) as a violation.  A residual that is
    not finite even at the smallest step raises ``RuntimeError`` naming the
    overflow, one that is finite there but above tol
    :class:`StepSearchStagnation`.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    dt = None
    for k in range(DEFAULT_KMAX_HALVINGS + 1):
        cand = t / (2**k * 100.0)
        res = curve.value(cand)
        if res <= tol:
            dt = cand
            break
    if dt is None:
        if not np.isfinite(res):
            raise RuntimeError(f"residual is not finite even at t = {cand:g}: "
                               "the time span overflows")
        raise StepSearchStagnation(
            "stagnation: residual not small even for tiny steps"
        )
    j_max = int(np.floor(t / dt + 1e-9))
    j = 2
    chunk = 256
    while j <= j_max:
        j_hi = min(j + chunk - 1, j_max)
        vals = curve.values(dt * np.arange(j, j_hi + 1))
        bad = np.nonzero(~(vals <= tol))[0]
        if bad.size:
            return float((j + bad[0] - 1) * dt)
        j = j_hi + 1
    return t


def krylov_build(op: LinearOperator, w, m_target: int,
                 reorth: bool = False) -> KrylovDecomposition:
    """Run m_target Krylov steps (fewer on happy breakdown).

    Lanczos is selected automatically for symmetric operators.  A happy
    breakdown returns early with the breakdown flag set; downstream code
    treats the approximation as exact (the residual vanishes identically).
    """
    if m_target < 1:
        raise ValueError("m_target must be at least 1")
    if m_target > op.dim:
        raise ValueError("m_target exceeds operator dimension")
    process = KrylovProcess(op, w, m_target, reorth=reorth)
    for _ in range(m_target):
        process.step()
        if process.breakdown:
            break
    return process.snapshot()
