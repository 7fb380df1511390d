"""Matrix-free linear operators with exact matvec accounting.

All vectors are 1-D float64 ``numpy.ndarray`` objects.  Every operator
counts its matrix-vector products so that solvers can report the exact
number of products consumed by a run (measured as a counter delta).

``apply(x, out=None)`` returns ``A @ x``; given ``out``, a C-contiguous
writable float64 vector of the operator's dimension that does not overlap
``x``, it writes the product there and returns ``out``, so a Krylov step can
apply A straight into its basis store.  Both forms give the same bits.
A non-finite entry of x spreads through a full GEMM as inf * 0 = NaN along
its whole contracted line.  :class:`KroneckerSum3D` multiplies each factor
only over its band, so along each line it reaches only the blocks whose
band covers the entry: one inf at grid point (5, 20, 40) of 64^3 gives 30
non-finite entries, where three full GEMMs give 190 (22 to 46 elsewhere on
the grid).  When nx is not a multiple of 8 its x line is one full GEMM and
fills.  :class:`KroneckerSum3D` keeps its intermediates in a per-thread
workspace, so concurrent applies on distinct vectors stay safe.
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

    def _apply_fused(self, x, out, coeff, v) -> bool:
        """A Lanczos step's sweep, where the operator has one: ``out = A x -
        coeff * v`` as one counted :meth:`apply`, with the bits of the apply
        and the subtraction.  Every :class:`KroneckerSum3D` has it; the
        other operators return False, having done nothing."""
        return False


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

    @property
    def csr(self):
        """The stored matrix (scipy CSR, float64); callers must not modify it."""
        return self._csr

    def _matvec(self, x, out):
        csr = self._csr
        out.fill(0.0)
        _sparsetools.csr_matvec(self.dim, self.dim, csr.indptr, csr.indices,
                                csr.data, x, out)


def read_matrix_market(path) -> SparseCSR:
    """Read a Matrix Market coordinate file (real, general or symmetric)
    with finite entries."""
    info = scipy.io.mminfo(path)
    if info[4] not in ("real", "integer", "pattern"):
        raise ValueError(f"unsupported Matrix Market field: {info[4]}")
    mat = scipy.io.mmread(path).tocsr()
    if not np.isfinite(mat.data).all():
        raise ValueError(f"{path}: matrix entries must be finite")
    return SparseCSR(mat, is_symmetric=(info[5] == "symmetric"))


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


#: Rows per banded GEMM block of a Kronecker factor (see :class:`KroneckerSum3D`).
_BAND_BLOCK = 8


def _tail_columns(ncols: int) -> int:
    """How many of the ``ncols`` columns of a GEMM OpenBLAS's x86-64 kernels
    compute by their tail path, whose sums depend on where the inner
    dimension starts: restructuring a product that has them changes bits."""
    return ncols % 8


def _row_blocks(fac: np.ndarray, lower: int, upper: int) -> list:
    """Blocks of ``_BAND_BLOCK`` rows of the square factor ``fac``, each with
    the columns ``[r0 - lower, r1 + upper)`` clipped to the factor.

    Returns ``(fac[rows, cols], rows, cols)`` triples, ``rows = slice(r0,
    r1)`` and ``cols = slice(c0, c1)``.  No block has a single row unless the
    factor has (the last block takes it), since numpy hands a one-row
    product to GEMV, which sums in another order.
    """
    n = fac.shape[0]
    bounds = list(range(0, n, _BAND_BLOCK)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    blocks = []
    for r0, r1 in zip(bounds, bounds[1:]):
        rows, cols = slice(r0, r1), slice(max(r0 - lower, 0), min(r1 + upper, n))
        blocks.append((fac[rows, cols], rows, cols))
    return blocks


def _band_blocks(fac: np.ndarray, ncols: int) -> list:
    """Row blocks of the square factor ``fac`` for a product with ``ncols``
    columns, each with the columns of ``fac`` its band reaches.

    These are the :func:`_row_blocks` for the bandwidths lower and upper of
    the factor's nonzeros, so each block leaves out only exact zeros.  The
    whole factor comes back as one block when the band leaves nothing worth
    skipping (a dense or a small factor) and when the product has tail
    columns (:func:`_tail_columns`).
    """
    n = fac.shape[0]
    i, j = np.nonzero(fac)
    lower = int(np.max(i - j, initial=0))
    upper = int(np.max(j - i, initial=0))
    if lower + upper + _BAND_BLOCK >= n or _tail_columns(ncols):
        return [(fac, slice(0, n), slice(0, n))]
    return _row_blocks(fac, lower, upper)


class KroneckerSum3D(LinearOperator):
    """3-D separable operator  kz*Lz (x) I (x) I + I (x) ky*Ly (x) I + I (x) I (x) kx*Lx.

    Vectors use x-fastest ordering, i.e. entry (i, j, k) of the grid lives at
    flat index ``i + nx*(j + ny*k)``.  The three factors are small dense
    (typically tridiagonal) matrices, and each apply is a set of banded BLAS
    GEMMs (:func:`_band_blocks`): each block of rows of a factor multiplies
    only the columns its band reaches.  The dropped terms are exact zeros,
    which for finite x add nothing to an entry's multiply-add chain, so the
    bits are those of the contractions ``np.tensordot`` makes.

    One loop runs over groups of p z-planes.  A group's z rows go straight
    into ``out``; its y term and then its x term (the x lines times column
    blocks of Lx^T) are formed in one workspace and added into ``out`` while
    both are still in cache.  A Lanczos step's private :meth:`_apply_fused`
    runs its beta v_{m-1} subtraction in the same loop: each group last
    subtracts coeff * v from its ``out`` rows.

    When ``nx`` is a multiple of 8, a group is a row block of Lz (8 whole
    rows where Lz's band covers it), its y term is Ly times each plane, and
    the workspace of p*ny*nx floats stays small enough for L2 at 64^3.  The
    bits equal those of tensordot's whole-grid contractions except on grids of at
    most 1200 points with nx >= 32 and on a single line (ny = nz = 1), where
    the whole x GEMM goes to OpenBLAS's small-matrix or GEMV kernels, which
    sum in another order (measured with OpenBLAS 0.3.31 on an x86-64
    SkylakeX core).

    Otherwise every product with nx columns has tail columns
    (:func:`_tail_columns`), whose sums move with the shape of the product,
    so the grid is one group of all nz planes: the z blocks of the whole
    grid, the y blocks on a transposed copy of x (the copy tensordot makes),
    and one x GEMM by Lx^T, through a workspace of two n-vectors.  Splitting
    it into smaller groups, or Lz into blocks of 8 rows where ny*nx has tail
    columns, changes the bits on some grids.

    Each calling thread allocates its workspace once (a
    ``threading.local``).
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
        self._yblocks = _band_blocks(self.ly, self.nz * self.nx)
        zblocks = _band_blocks(self.lz, self.ny * self.nx)
        self._tail = bool(_tail_columns(self.nx))
        if self._tail:  # one group of all nz planes, x by the view Lx^T
            self._groups = [(slice(0, self.nz), zblocks)]
            self._xblocks = [(self.lx.T, slice(0, self.nx), slice(0, self.nx))]
        else:
            if len(zblocks) == 1:  # groups of 8 planes, whole rows of Lz
                zblocks = _row_blocks(self.lz, self.nz, self.nz)
            self._groups = [(rows, [(block, rows, cols)]) for block, rows, cols in zblocks]
            # contiguous blocks of Lx^T: with a transposed operand OpenBLAS
            # sends small products to a kernel that sums in another order
            self._xblocks = [(np.ascontiguousarray(block.T), rows, cols)
                             for block, rows, cols in _band_blocks(self.lx, self.nx)]
        # a group of p planes takes p*ny*nx floats, twice on a tail grid
        # (the y term's transposed copy)
        planes = max(rows.stop - rows.start for rows, _ in self._groups)
        self._ws_size = (1 + self._tail) * planes * self.ny * self.nx
        self._local = threading.local()

    def _apply_fused(self, x, out, coeff, v) -> bool:
        self._local.fused = (coeff, v)
        try:
            self.apply(x, out=out)
        finally:
            self._local.fused = None
        return True

    def _matvec(self, x, out):
        ws = getattr(self._local, "ws", None)
        if ws is None:
            ws = self._local.ws = np.empty(self._ws_size)
        fused = getattr(self._local, "fused", None)
        nx, ny, nz = self.nx, self.ny, self.nz
        x3, xz, oz = x.reshape(nz, ny, nx), x.reshape(nz, ny * nx), out.reshape(nz, ny * nx)
        if fused is not None:
            coeff, vz = fused[0], fused[1].reshape(nz, ny * nx)
        for rows, zblocks in self._groups:
            o, xs = oz[rows], x3[rows]
            p = len(xs)
            w = ws[:p * ny * nx].reshape(p, ny, nx)
            for block, zrows, cols in zblocks:
                np.dot(block, xz[cols], out=oz[zrows])
            if self.kz != 1.0:
                o *= self.kz
            if self._tail:  # y: on a transposed copy of the group, as tensordot
                xy, wy = ws[p * ny * nx:].reshape(ny, p * nx), w.reshape(ny, p * nx)
                np.copyto(xy.reshape(ny, p, nx), xs.transpose(1, 0, 2))
                for lyb, yrows, ycols in self._yblocks:
                    np.dot(lyb, xy[ycols], out=wy[yrows])
                y_term = wy.reshape(ny, p, nx).transpose(1, 0, 2)
            else:  # y: Ly times each plane of the group
                for lyb, yrows, ycols in self._yblocks:
                    np.matmul(lyb, xs[:, ycols], out=w[:, yrows])
                y_term = w
            if self.ky != 1.0:
                w *= self.ky
            o.reshape(p, ny, nx)[...] += y_term
            # x: the group's x lines times the column blocks of Lx^T
            xl, wl = xs.reshape(p * ny, nx), w.reshape(p * ny, nx)
            for lxt, xrows, xcols in self._xblocks:
                np.matmul(xl[:, xcols], lxt, out=wl[:, xrows])
            if self.kx != 1.0:
                w *= self.kx
            o += w.reshape(p, ny * nx)
            if fused is not None:  # a Lanczos step's - coeff * v, while o is in cache
                o -= np.multiply(vz[rows], coeff, out=w.reshape(p, ny * nx))


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
