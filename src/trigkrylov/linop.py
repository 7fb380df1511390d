"""Matrix-free linear operators with exact matvec accounting.

All vectors are 1-D float64 ``numpy.ndarray`` objects.  Every operator
counts its matrix-vector products so that solvers can report the exact
number of products consumed by a run (measured as a counter delta).

``apply(x, out=None)`` returns ``A @ x``; given ``out``, a C-contiguous
writable float64 vector of the operator's dimension that does not overlap
``x``, it writes the product there and returns ``out``, so a Krylov step can
apply A straight into its basis store.  Both forms give the same bits.
:class:`KroneckerSum3D` keeps its two n-vector intermediates in a
per-thread workspace, so concurrent applies on distinct vectors stay safe.
"""
from __future__ import annotations

import threading

import numpy as np
import scipy.io
import scipy.sparse
from scipy.sparse import _sparsetools


class LinearOperator:
    """Abstract matvec provider: ``y = A @ x`` for a fixed dimension.

    Subclasses implement ``_matvec(x, out)``, which writes ``A @ x`` into
    ``out``.  ``apply`` validates ``x`` and ``out``, increments the matvec
    counter by exactly one and returns the product.  The counter is
    lock-protected so ``apply`` may be called concurrently from several
    threads on distinct vectors.
    """

    def __init__(self, dim: int, is_symmetric: bool):
        if dim <= 0:
            raise ValueError(f"operator dimension must be positive, got {dim}")
        self.dim = int(dim)
        self.is_symmetric = bool(is_symmetric)
        self._matvec_count = 0
        self._count_lock = threading.Lock()

    @property
    def matvec_count(self) -> int:
        return self._matvec_count

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: operator dim {self.dim}, vector shape {x.shape}"
            )
        if out is None:
            out = np.empty(self.dim)
        elif not (isinstance(out, np.ndarray) and out.shape == (self.dim,)
                  and out.dtype == np.float64 and out.flags.c_contiguous
                  and out.flags.writeable):
            raise ValueError(
                f"out must be a writable contiguous float64 vector of shape "
                f"({self.dim},)"
            )
        elif np.may_share_memory(x, out):
            raise ValueError("out overlaps x")
        with self._count_lock:
            self._matvec_count += 1
        self._matvec(x, out)
        return out

    def _matvec(self, x: np.ndarray, out: np.ndarray) -> None:
        raise NotImplementedError


class IdentityOperator(LinearOperator):
    def __init__(self, dim: int):
        super().__init__(dim, is_symmetric=True)

    def _matvec(self, x, out):
        np.copyto(out, x)


class DenseOperator(LinearOperator):
    """Operator backed by an explicit square matrix (test and desk scale)."""

    def __init__(self, matrix, is_symmetric: bool | None = None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if is_symmetric is None:
            scale = np.linalg.norm(matrix, np.inf) or 1.0
            is_symmetric = bool(np.all(np.abs(matrix - matrix.T) <= 1e-14 * scale))
        super().__init__(matrix.shape[0], is_symmetric)
        self.matrix = matrix

    def _matvec(self, x, out):
        np.matmul(self.matrix, x, out=out)


class SparseCSR(LinearOperator):
    """Compressed-sparse-row operator (row pointers / column indices / values).

    The product accumulates into the zeroed ``out`` through scipy's
    ``csr_matvec``, the routine ``csr @ x`` calls on a fresh zero vector, so
    both give the same bits and an apply allocates no n-vector.
    """

    def __init__(self, csr, is_symmetric: bool = False):
        csr = scipy.sparse.csr_matrix(csr, dtype=float)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError("matrix must be square")
        csr.sort_indices()
        super().__init__(csr.shape[0], is_symmetric)
        self._csr = csr

    def _matvec(self, x, out):
        csr = self._csr
        out.fill(0.0)
        _sparsetools.csr_matvec(self.dim, self.dim, csr.indptr, csr.indices,
                                csr.data, x, out)


def read_matrix_market(path) -> SparseCSR:
    """Read a Matrix Market coordinate file (real, general or symmetric)."""
    info = scipy.io.mminfo(path)
    if info[4] not in ("real", "integer", "pattern"):
        raise ValueError(f"unsupported Matrix Market field: {info[4]}")
    mat = scipy.io.mmread(path)
    return SparseCSR(mat.tocsr(), is_symmetric=(info[5] == "symmetric"))


def dirichlet_laplacian_1d(n: int) -> np.ndarray:
    """Dense 1-D Dirichlet stencil (1/h^2) tridiag(-1, 2, -1), h = 1/(n+1).

    Positive definite by construction, so the assembled wave operator is SPD.
    """
    if n < 1:
        raise ValueError("need at least one interior point")
    h = 1.0 / (n + 1)
    return (
        2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    ) / h**2


def centered_difference_1d(n: int) -> np.ndarray:
    """Dense 1-D centered first-derivative stencil (1/2h) tridiag(-1, 0, 1)."""
    if n < 1:
        raise ValueError("need at least one interior point")
    h = 1.0 / (n + 1)
    return (np.eye(n, k=1) - np.eye(n, k=-1)) / (2.0 * h)


class KroneckerSum3D(LinearOperator):
    """3-D separable operator  kz*Lz (x) I (x) I + I (x) ky*Ly (x) I + I (x) I (x) kx*Lx.

    Vectors use x-fastest ordering, i.e. entry (i, j, k) of the grid lives at
    flat index ``i + nx*(j + ny*k)``.  The three factors are small dense
    tridiagonal matrices, so each apply is three BLAS contractions: the
    same ``np.dot`` calls ``np.tensordot`` makes, writing into ``out`` and
    into a workspace of two n-vectors that each calling thread allocates
    once (a ``threading.local``).
    """

    def __init__(self, lx, ly, lz, kx: float = 1.0, ky: float = 1.0, kz: float = 1.0):
        self.lx = np.asarray(lx, dtype=float)
        self.ly = np.asarray(ly, dtype=float)
        self.lz = np.asarray(lz, dtype=float)
        for name, fac in (("lx", self.lx), ("ly", self.ly), ("lz", self.lz)):
            if fac.ndim != 2 or fac.shape[0] != fac.shape[1]:
                raise ValueError(f"{name} must be a square matrix")
        self.kx, self.ky, self.kz = float(kx), float(ky), float(kz)
        self.nx = self.lx.shape[0]
        self.ny = self.ly.shape[0]
        self.nz = self.lz.shape[0]
        symmetric = all(
            np.array_equal(fac, fac.T) for fac in (self.lx, self.ly, self.lz)
        )
        super().__init__(self.nx * self.ny * self.nz, is_symmetric=symmetric)
        self._local = threading.local()

    def _matvec(self, x, out):
        nx, ny, nz = self.nx, self.ny, self.nz
        ws = getattr(self._local, "ws", None)
        if ws is None:
            ws = self._local.ws = np.empty((2, self.dim))
        # z: lz contracts the slowest axis
        np.dot(self.lz, x.reshape(nz, ny * nx), out=out.reshape(nz, ny * nx))
        out *= self.kz
        # y: bring the y axis to the front (the copy tensordot makes), contract
        np.copyto(ws[0].reshape(ny, nz, nx), x.reshape(nz, ny, nx).transpose(1, 0, 2))
        np.dot(self.ly, ws[0].reshape(ny, nz * nx), out=ws[1].reshape(ny, nz * nx))
        ws[1] *= self.ky
        out.reshape(nz, ny, nx)[...] += ws[1].reshape(ny, nz, nx).transpose(1, 0, 2)
        # x: lx contracts the fastest axis
        np.dot(x.reshape(nz * ny, nx), self.lx.T, out=ws[0].reshape(nz * ny, nx))
        ws[0] *= self.kx
        out += ws[0]


class BlockFirstOrderOperator(LinearOperator):
    """Block operator [[0, -I], [A, 0]] of dimension 2n for inner A of dimension n.

    Each block product needs exactly one inner product with A, and the inner
    operator's counter is what benchmark reports read, so a block apply is
    accounted as a single matvec.
    """

    def __init__(self, inner: LinearOperator):
        self.inner = inner
        super().__init__(2 * inner.dim, is_symmetric=False)

    def _matvec(self, x, out):
        n = self.inner.dim
        np.negative(x[n:], out=out[:n])
        self.inner.apply(x[:n], out=out[n:])


def assemble_dense(op: LinearOperator, cap: int = 4096) -> np.ndarray:
    """Materialize an operator column by column (oracle support, small dims)."""
    if op.dim > cap:
        raise ValueError(f"dimension {op.dim} exceeds dense assembly cap {cap}")
    cols = np.empty((op.dim, op.dim))
    e = np.zeros(op.dim)
    for j in range(op.dim):
        e[j] = 1.0
        cols[:, j] = op.apply(e)
        e[j] = 0.0
    return cols
