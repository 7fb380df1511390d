import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from trigkrylov.linop import (
    BlockFirstOrderOperator,
    DenseOperator,
    KroneckerSum3D,
    SparseCSR,
    _band_blocks,
    assemble_dense,
    centered_difference_1d,
    dirichlet_laplacian_1d,
    read_matrix_market,
)
from trigkrylov.problems import (
    TransportProblemSpec,
    WaveProblemSpec,
    anisotropic_wave_spec,
    build_transport,
    build_wave3d,
    isotropic_wave_spec,
)


def test_laplacian_stencil_hand_value():
    # n=3, h=1/4: L @ (1,1,1) = 16 * (1, 0, 1)
    lap = dirichlet_laplacian_1d(3)
    op = DenseOperator(lap)
    np.testing.assert_allclose(op.apply(np.ones(3)), 16.0 * np.array([1.0, 0.0, 1.0]))


def test_block_apply_formula():
    op = BlockFirstOrderOperator(DenseOperator(np.eye(2)))
    out = op.apply(np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(out, [-3.0, -4.0, 1.0, 2.0])


def test_block_assemble_1x1():
    a = DenseOperator(np.array([[2.5]]))
    block = BlockFirstOrderOperator(a)
    np.testing.assert_allclose(assemble_dense(block), [[0.0, -1.0], [2.5, 0.0]])


def test_assemble_identity():
    np.testing.assert_allclose(assemble_dense(DenseOperator(np.eye(2))), np.eye(2))


def test_assemble_cap():
    with pytest.raises(ValueError, match="cap"):
        assemble_dense(DenseOperator(np.eye(10)), cap=4)


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        DenseOperator(np.eye(3)).apply(np.ones(4))


def _kron_sum_dense(lx, ly, lz, kx, ky, kz):
    ix, iy, iz = (np.eye(m.shape[0]) for m in (lx, ly, lz))
    return (
        kz * np.kron(np.kron(lz, iy), ix)
        + ky * np.kron(np.kron(iz, ly), ix)
        + kx * np.kron(np.kron(iz, iy), lx)
    )


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 4, 2), (8, 8, 8)])
def test_kronecker_sum_matches_explicit_assembly(shape):
    nx, ny, nz = shape
    rng = np.random.default_rng(7)
    lx, ly, lz = (dirichlet_laplacian_1d(n) for n in (nx, ny, nz))
    op = KroneckerSum3D(lx, ly, lz, kx=2.0, ky=0.5, kz=3.0)
    dense = _kron_sum_dense(lx, ly, lz, 2.0, 0.5, 3.0)
    sparse_op = SparseCSR(scipy.sparse.csr_matrix(dense), is_symmetric=True)
    scale = np.linalg.norm(dense, np.inf)
    for _ in range(4):
        x = rng.standard_normal(op.dim)
        ya = op.apply(x)
        yb = sparse_op.apply(x)
        np.testing.assert_allclose(ya, dense @ x, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(ya, yb, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("make_op", [
    lambda: DenseOperator(np.eye(12)),
    lambda: DenseOperator(np.diag(np.arange(1.0, 13.0))),
    lambda: KroneckerSum3D(*(dirichlet_laplacian_1d(2),) * 3),
    lambda: BlockFirstOrderOperator(DenseOperator(np.diag([1.0, 2.0, 3.0]))),
])
def test_linearity_and_symmetry(make_op):
    rng = np.random.default_rng(0)
    op = make_op()
    x = rng.standard_normal(op.dim)
    y = rng.standard_normal(op.dim)
    a, b = 0.37, -1.6
    lhs = op.apply(a * x + b * y)
    rhs = a * op.apply(x) + b * op.apply(y)
    scale = max(np.linalg.norm(lhs), 1.0)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)
    if op.is_symmetric:
        assert abs(op.apply(x) @ y - x @ op.apply(y)) <= 1e-12 * scale * np.linalg.norm(y)


def test_matvec_count_exact():
    op = DenseOperator(np.eye(5))
    for k in range(1, 8):
        op.apply(np.ones(5))
        assert op.matvec_count == k


def test_matvec_count_thread_safe():
    op = DenseOperator(np.eye(64))
    x = np.ones(64)

    def worker():
        for _ in range(200):
            op.apply(x)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert op.matvec_count == 8 * 200


def test_block_counts_one_per_apply():
    inner = DenseOperator(np.eye(3))
    block = BlockFirstOrderOperator(inner)
    block.apply(np.ones(6))
    assert inner.matvec_count == 1
    assert block.matvec_count == 1


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((6, 6))
    dense[np.abs(dense) < 0.7] = 0.0
    path = tmp_path / "gen.mtx"
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(dense))
    op = read_matrix_market(path)
    assert not op.is_symmetric
    np.testing.assert_allclose(assemble_dense(op), dense, atol=1e-12)

    sym = dense + dense.T
    path2 = tmp_path / "sym.mtx"
    scipy.io.mmwrite(path2, scipy.sparse.coo_matrix(sym), symmetry="symmetric")
    op2 = read_matrix_market(path2)
    assert op2.is_symmetric
    np.testing.assert_allclose(assemble_dense(op2), sym, atol=1e-12)


def test_centered_difference_antisymmetric():
    d = centered_difference_1d(5)
    np.testing.assert_allclose(d, -d.T)


def _tensordot_apply(op, x):
    """The Kronecker-sum product as three ``np.tensordot`` contractions."""
    t = x.reshape(op.nz, op.ny, op.nx)
    out = op.kz * np.tensordot(op.lz, t, axes=(1, 0))
    out += op.ky * np.moveaxis(np.tensordot(op.ly, t, axes=(1, 1)), 0, 1)
    out += op.kx * np.tensordot(t, op.lx, axes=(2, 1))
    return out.reshape(op.dim)


def _nonsymmetric_1d(n):
    return dirichlet_laplacian_1d(n) + centered_difference_1d(n)


def _pentadiagonal_1d(n):
    return sum((3.5 + k) * np.eye(n, k=k) for k in (-2, -1, 0, 1, 2))


def _kronecker_ops():
    for nx, ny, nz in [(2, 2, 2), (3, 4, 2), (8, 8, 8)]:
        lx, ly, lz = (dirichlet_laplacian_1d(n) for n in (nx, ny, nz))
        yield KroneckerSum3D(lx, ly, lz, kx=2.0, ky=0.5, kz=3.0)
    yield build_wave3d(anisotropic_wave_spec(20)).op
    # banded GEMM blocks: the wave3d-large operator, large and odd grids
    yield build_wave3d(isotropic_wave_spec(64)).op
    yield build_wave3d(anisotropic_wave_spec(48)).op
    for shape in ((17, 17, 17), (17, 23, 31), (8, 17, 33)):
        yield build_wave3d(WaveProblemSpec(*shape, 1e4, 1e2, 1.0, "anisotropic-sines")).op
    # plane groups (nx a multiple of 8): odd ny and nz, fewer than 8
    # planes, a short last group, and two more cubes
    for shape in ((24, 17, 33), (16, 16, 3), (16, 12, 10)):
        yield build_wave3d(WaveProblemSpec(*shape, 1e4, 1e2, 1.0, "anisotropic-sines")).op
    yield build_wave3d(isotropic_wave_spec(40)).op
    yield build_wave3d(isotropic_wave_spec(56)).op
    # wider and nonsymmetric bands, and a dense factor
    yield KroneckerSum3D(*(_nonsymmetric_1d(n) for n in (16, 24, 40)), kx=0.5, kz=2.0)
    yield KroneckerSum3D(*(_pentadiagonal_1d(n) for n in (8, 27, 41)), ky=2.0)
    rng = np.random.default_rng(5)
    yield KroneckerSum3D(dirichlet_laplacian_1d(8),
                         *(rng.standard_normal((n, n)) for n in (16, 24)))
    # tail grids, one group of all nz planes: each changed bits when split
    # into several groups or Lz into blocks of 8 rows
    for shape in ((20, 64, 31), (11, 33, 64), (33, 33, 33)):
        for factors in ((1.0, 1.0, 1.0), (1e4, 1e2, 1.0)):
            yield build_wave3d(WaveProblemSpec(*shape, *factors, "anisotropic-sines")).op


def test_kronecker_apply_bits_equal_the_tensordot_formula():
    rng = np.random.default_rng(11)
    for op in _kronecker_ops():
        for _ in range(3):
            x = rng.standard_normal(op.dim)
            expected = _tensordot_apply(op, x)
            assert np.array_equal(op.apply(x), expected)
            out = np.full(op.dim, np.nan)
            assert op.apply(x, out=out) is out
            assert np.array_equal(out, expected)


@pytest.mark.parametrize("fac,ncols,n_blocks", [
    (dirichlet_laplacian_1d(64), 4096, 8),
    (dirichlet_laplacian_1d(20), 400, 3),
    (dirichlet_laplacian_1d(17), 136, 2),          # no one-row block
    (_nonsymmetric_1d(40), 640, 5),
    (_pentadiagonal_1d(41), 216, 5),
    (dirichlet_laplacian_1d(10), 100, 1),          # band covers the factor
    (dirichlet_laplacian_1d(64), 4095, 1),         # columns not a multiple of 8
    (np.random.default_rng(2).standard_normal((64, 64)), 4096, 1),  # dense
])
def test_band_blocks_cover_every_nonzero(fac, ncols, n_blocks):
    blocks = _band_blocks(fac, ncols)
    assert len(blocks) == n_blocks
    covered = np.zeros_like(fac)
    next_row = 0
    for block, rows, cols in blocks:
        assert rows.start == next_row and rows.stop - rows.start > 1
        assert np.shares_memory(block, fac)
        assert np.array_equal(block, fac[rows, cols])
        covered[rows, cols] = block
        next_row = rows.stop
    assert next_row == fac.shape[0]
    assert np.array_equal(covered, fac)


@pytest.mark.parametrize("make_op", [
    lambda: DenseOperator(np.eye(12)),
    lambda: DenseOperator(np.diag(np.arange(1.0, 13.0))),
    lambda: SparseCSR(scipy.sparse.diags(np.arange(1.0, 13.0)), is_symmetric=True),
    lambda: KroneckerSum3D(*(dirichlet_laplacian_1d(2),) * 3),
    lambda: BlockFirstOrderOperator(DenseOperator(np.diag(np.arange(1.0, 7.0)))),
])
def test_apply_into_out_matches_the_returned_product(make_op):
    op = make_op()
    x = np.random.default_rng(3).standard_normal(op.dim)
    expected = op.apply(x)
    out = np.empty(op.dim)
    assert op.apply(x, out=out) is out
    assert np.array_equal(out, expected)
    assert op.matvec_count == 2


@pytest.mark.parametrize("bad_out", [
    lambda buf: buf[:5],                      # wrong shape
    lambda buf: buf.reshape(2, 6),            # wrong shape
    lambda buf: np.empty(12, dtype=np.float32),
    lambda buf: np.empty(24)[::2],            # not contiguous
])
def test_apply_rejects_a_malformed_out(bad_out):
    op = DenseOperator(np.eye(12))
    with pytest.raises(ValueError, match="out must be"):
        op.apply(np.ones(12), out=bad_out(np.empty(12)))
    assert op.matvec_count == 0


def test_apply_rejects_an_out_that_overlaps_x():
    op = KroneckerSum3D(*(dirichlet_laplacian_1d(2),) * 3)
    store = np.ones((2, 2 * op.dim))
    for x, out in ((store[0, :8], store[0, :8]),       # the same vector
                   (store[0, :8], store[0, 4:12])):    # a shifted view
        with pytest.raises(ValueError, match="overlaps"):
            op.apply(x, out=out)
    # adjacent rows of one store do not overlap
    op.apply(store[0, :8], out=store[0, 8:])
    assert op.matvec_count == 1


def test_concurrent_kronecker_applies_equal_serial_ones():
    # 20^3 runs one group of all 20 planes, 24^3 groups of 8
    for spec in (anisotropic_wave_spec(20), isotropic_wave_spec(24)):
        _check_concurrent_applies(build_wave3d(spec).op)


def _check_concurrent_applies(op):
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((4, op.dim))
    serial = np.stack([_tensordot_apply(op, x) for x in xs])
    outs = np.empty((4, 25, op.dim))
    barrier = threading.Barrier(4)

    def worker(k):
        barrier.wait()
        for r in range(25):
            op.apply(xs[k], out=outs[k, r])

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' applies finely
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert op.matvec_count == 4 * 25
    for k in range(4):
        assert all(np.array_equal(outs[k, r], serial[k]) for r in range(25))


def test_kronecker_apply_at_64_cubed_allocates_two_plane_groups_at_most():
    op = build_wave3d(isotropic_wave_spec(64)).op
    planes = max(rows.stop - rows.start for rows, _ in op._groups)
    assert planes == 8
    assert 0 < _first_apply_peak(op) <= 2 * planes * op.ny * op.nx * 8


def test_kronecker_apply_on_a_tail_grid_allocates_two_vectors_at_most():
    # nx = 20 is not a multiple of 8: one group of all planes, whose y term
    # takes a transposed copy besides the group's workspace, 2n floats in
    # all; numpy buffers the strided add-back of the y term in one ufunc
    # buffer, and a few small objects take under 4 kB
    op = build_wave3d(anisotropic_wave_spec(20)).op
    assert [rows for rows, _ in op._groups] == [slice(0, op.nz)]
    assert 0 < _first_apply_peak(op) <= (2 * op.dim + np.getbufsize()) * 8 + 4096


def _first_apply_peak(op):
    """Bytes traced during an operator's first apply in a new thread, which
    allocates that thread's workspace; checks the product's bits."""
    x = np.random.default_rng(4).standard_normal(op.dim)
    out = np.empty(op.dim)
    peaks = []

    def first_apply():  # a new thread allocates its own workspace
        tracemalloc.start()
        try:
            op.apply(x, out=out)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    th = threading.Thread(target=first_apply)
    th.start()
    th.join()
    assert np.array_equal(out, _tensordot_apply(op, x))
    return peaks[0]


def test_csr_apply_bits_equal_the_scipy_product():
    rng = np.random.default_rng(12)
    transport = build_transport(TransportProblemSpec(512)).op
    rand = scipy.sparse.random(300, 300, density=0.05, random_state=3, format="csr")
    for op, csr in ((transport, transport._csr), (SparseCSR(rand), rand)):
        x = rng.standard_normal(op.dim)
        assert np.array_equal(op.apply(x), csr @ x)
        out = np.full(op.dim, np.nan)  # the product must not read what out held
        assert op.apply(x, out=out) is out
        assert np.array_equal(out, csr @ x)


@pytest.mark.parametrize("in_store", [False, True])
@pytest.mark.parametrize("shape,factors", [
    ((64, 17, 1), (1.0, 1.0, 1.0)),   # whole x GEMM bits differ from the plane path
    ((64, 1, 1), (1.0, 1.0, 1.0)),    # a single line
    ((8, 1, 1), (2.0, 1.0, 1.0)),
    ((16, 12, 10), (0.5, 2.0, 3.0)),  # a short last plane group
    ((8, 17, 33), (1.0, 1.0, 1.0)),   # odd planes of 136 points, and 5 groups
    ((64, 64, 64), (1.0, 1.0, 1.0)),  # the wave3d-large operator
    ((20, 20, 20), (1e4, 1e2, 1.0)),  # the wave3d-aniso operator, one group
    ((10, 6, 4), (1.0, 1.0, 1.0)),    # a tail grid of one band block
])
def test_fused_sweep_bits_equal_the_three_passes(shape, factors, in_store):
    # a Lanczos step's A x and - coeff * v in one sweep over the plane
    # groups, against the whole-vector apply and subtraction; in_store
    # passes v, x and out as rows of one store, as the step does
    op = KroneckerSum3D(*(dirichlet_laplacian_1d(n) for n in shape), *factors)
    rng = np.random.default_rng(21)
    store = np.full((3, op.dim), np.nan)
    store[:2] = rng.standard_normal((2, op.dim))
    v, x, out = store if in_store else [row.copy() for row in store]
    coeff = rng.standard_normal()
    x_before = x.copy()
    expected = op.apply(x)
    expected -= np.multiply(v, coeff)
    count = op.matvec_count
    assert op._apply_fused(x, out, coeff, v)
    assert op.matvec_count == count + 1
    assert np.array_equal(x, x_before)
    assert np.array_equal(out, expected)
    # the sweep is armed for that one apply only
    assert np.array_equal(op.apply(x, out=out), op.apply(x))


def test_operators_without_a_plane_path_have_no_fused_sweep():
    ops = [DenseOperator(np.diag([1.0, 2.0, 3.0])),
           SparseCSR(scipy.sparse.diags([1.0, 2.0, 3.0]), is_symmetric=True),
           BlockFirstOrderOperator(DenseOperator(np.diag([1.0, 2.0, 3.0])))]
    for op in ops:
        x = np.ones(op.dim)
        out = np.full(op.dim, np.nan)
        assert not op._apply_fused(x, out, 5.0, np.ones(op.dim))
        assert op.matvec_count == 0
        assert np.all(x == 1.0) and np.all(np.isnan(out))
