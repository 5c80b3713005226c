import numpy as np
import pytest

from qexpect import (
    ScalingParams,
    SparseMatrix,
    assemble,
    matvec_counter,
    spmv,
    trace_form,
)
from qexpect.cli import benchmark_spec

from conftest import random_hermitian

#: S = 0 and D = 1: ``rescale`` returns the matrix itself, bitwise.
_IDENTITY_SCALING = ScalingParams.from_bounds(1.0, -1.0)


def test_spmv_identity():
    x = np.array([1.0, 1.0j, 0.0, -2.0])
    y = spmv(SparseMatrix.identity(4), x)
    assert np.array_equal(y, x)


def test_spmv_diagonal():
    a = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(spmv(a, np.ones(3)), [1.0, 2.0, 3.0])


def test_spmv_single_entry():
    a = SparseMatrix.from_triplets([0], [1], [1.0j], shape=(2, 2))
    y = spmv(a, np.array([0.0, 3.0]))
    assert np.array_equal(y, [3.0j, 0.0])


def test_spmv_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        spmv(SparseMatrix.identity(3), np.ones(4))


@pytest.mark.parametrize("dim", [7, 64, 256])
def test_spmv_matches_dense(dim, rng):
    a_dense = random_hermitian(dim, rng)
    a_dense[rng.random((dim, dim)) < 0.5] = 0.0
    a = SparseMatrix.from_dense(a_dense)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    y = spmv(a, x)
    ref = a_dense @ x
    assert np.linalg.norm(y - ref) <= 1e-13 * max(np.linalg.norm(ref), 1.0)


def test_spmv_increments_counter():
    before = matvec_counter.count
    spmv(SparseMatrix.identity(2), np.ones(2))
    assert matvec_counter.count == before + 1


def _hand_built(case):
    """A 3x3 CSR: real symmetric, one ulp off symmetric, or Hermitian but complex."""
    a = np.array([[1.0, 0.25, 0.0], [0.25, -2.0, 0.5], [0.0, 0.5, 0.0]], dtype=np.complex128)
    if case == "ulp_off":
        a[2, 1] = np.nextafter(0.5, 1.0)
    elif case == "hermitian":
        a[0, 1], a[1, 0] = 0.25 + 0.5j, 0.25 - 0.5j
    return SparseMatrix.from_dense(a)


@pytest.mark.parametrize("case, real, symmetric", [
    ("symmetric", True, True),
    ("ulp_off", True, False),
    ("hermitian", False, False),
], ids=["symmetric", "ulp_off", "hermitian"])
def test_real_and_symmetric_flags(case, real, symmetric):
    a = _hand_built(case)
    assert (a.real, a.symmetric) == (real, symmetric)
    assert (a.transpose().real, a.transpose().symmetric) == (real, symmetric)


@pytest.mark.parametrize("case", ["symmetric", "ulp_off", "hermitian"])
def test_real_rescale_is_the_real_part_of_the_complex_one(case, rng):
    a = _hand_built(case)
    scaling = ScalingParams.from_bounds(2.7, -3.1)
    full = a.rescale(scaling)
    real = a.rescale(scaling, real=True)
    assert full.csr.data.dtype == np.complex128
    assert real.csr.data.dtype == np.float64
    assert real.real
    expected = full.to_dense().real
    assert real.to_dense().tobytes() == expected.tobytes()
    # the flags of the rescaled matrix read its own entries
    assert real.symmetric == np.array_equal(expected, expected.T)
    with pytest.raises(ValueError, match="half-width"):
        a.rescale(ScalingParams.from_bounds(1.0, 1.0))


def test_spmv_counts_one_product_for_each_operator_kind(rng):
    system = assemble(benchmark_spec(3), ("ip",))
    x = rng.standard_normal(system.block_dim)
    for op in (system.l_op, system.sector_op, system.l_op.rescale(
            system.spectral_interval(), real=True)):
        before = matvec_counter.count
        y = spmv(op, x)
        assert matvec_counter.count == before + 1
        assert y.tobytes() == op.matvec(x).tobytes()
    assert np.max(np.abs(spmv(system.sector_op, x) - spmv(system.l_op, x))) <= 1e-13


def test_spmv_keeps_real_vectors_real_on_real_storage(rng):
    dense = rng.standard_normal((6, 6))
    dense[rng.random((6, 6)) < 0.5] = 0.0
    complex_op = SparseMatrix.from_dense(dense)
    real_op = complex_op.rescale(_IDENTITY_SCALING, real=True)
    assert real_op.csr.data.dtype == np.float64
    assert (real_op.nrows, real_op.nnz) == (complex_op.nrows, complex_op.nnz)
    x = rng.standard_normal(6)
    before = matvec_counter.count
    y = spmv(real_op, x)
    assert matvec_counter.count == before + 1
    assert y.dtype == np.float64
    assert np.array_equal(y, spmv(complex_op, x).real)
    # a complex vector, or the complex operator, still gives a complex product
    assert spmv(real_op, x * 1j).dtype == np.complex128
    assert spmv(complex_op, x).dtype == np.complex128


def test_triplets_sum_duplicates_and_accept_unordered():
    a = SparseMatrix.from_triplets(
        rows=[1, 0, 1, 0], cols=[0, 1, 0, 1], values=[2.0, 1.0, 3.0, -1.0], shape=(2, 2)
    )
    # (1,0) entries sum to 5; (0,1) entries cancel exactly and are pruned
    assert a.nnz == 1
    assert a.to_dense()[1, 0] == 5.0
    assert np.all(np.diff(a.csr.indptr) >= 0)


def test_explicit_zeros_pruned():
    a = SparseMatrix.from_triplets([0, 1], [0, 1], [0.0, 2.0], shape=(2, 2))
    assert a.nnz == 1


def test_column_indices_sorted_within_rows():
    a = SparseMatrix.from_triplets([0, 0, 0], [2, 0, 1], [1.0, 2.0, 3.0], shape=(1, 3))
    assert np.array_equal(a.csr.indices, [0, 1, 2])


def test_storage_is_immutable():
    a = SparseMatrix.identity(3)
    with pytest.raises(ValueError):
        a.csr.data[0] = 7.0


def test_trace_form_identity():
    w = trace_form(SparseMatrix.identity(2))
    rho = np.array([[1.0, 2.0], [3.0, 4.0]]).ravel(order="F")  # column stacking
    assert w @ rho == pytest.approx(5.0)  # a + d


def test_trace_form_zero_observable():
    w = trace_form(SparseMatrix.zeros(2))
    assert np.all(w == 0)


def test_trace_form_shift_up_against_dense():
    # rho = -Iy, Q = Ix + i*Iy: trace is -i/2
    iy = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    ip = np.array([[0.0, 1.0], [0.0, 0.0]])
    w = trace_form(SparseMatrix.from_dense(ip))
    value = w @ (-iy).ravel(order="F")
    assert value == pytest.approx(-0.5j)
    assert value == pytest.approx(np.trace((-iy) @ ip))


def test_trace_form_linearity(rng):
    q1 = random_hermitian(4, rng)
    q2 = random_hermitian(4, rng)
    rho = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    alpha, beta = 1.3 - 0.2j, -0.7 + 2.1j
    combined = trace_form(
        SparseMatrix.from_dense(alpha * q1 + beta * q2)
    )
    split = alpha * (trace_form(SparseMatrix.from_dense(q1)) @ rho) + beta * (
        trace_form(SparseMatrix.from_dense(q2)) @ rho
    )
    assert abs(combined @ rho - split) <= 1e-12 * max(abs(split), 1.0)


def test_trace_form_hermitian_real(rng):
    q = random_hermitian(8, rng)
    rho_mat = random_hermitian(8, rng)
    value = trace_form(SparseMatrix.from_dense(q)) @ rho_mat.ravel(order="F")
    assert abs(value.imag) <= 1e-12


def test_trace_form_requires_square():
    a = SparseMatrix.from_triplets([0], [0], [1.0], shape=(2, 3))
    with pytest.raises(ValueError, match="square"):
        trace_form(a)


def _entries(a, rows, cols):
    return a.entries(np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))


def test_entries_reads_stored_and_missing_entries():
    a = SparseMatrix.from_triplets([0, 1, 2], [1, 1, 0], [2.0 - 1.0j, 3.0, 0.5j], shape=(3, 3))
    got = _entries(a, [0, 1, 2, 0, 2, 1], [1, 1, 0, 0, 2, 1])
    assert got.dtype == np.complex128
    assert got.tobytes() == np.array([2.0 - 1.0j, 3.0, 0.5j, 0.0, 0.0, 3.0]).tobytes()


def test_entries_reads_a_stored_negative_zero_as_positive_zero():
    # the real parts of Iy are stored as -0.0; a trace form holds +0.0
    a = SparseMatrix.from_dense(np.array([[0.0, -0.5j], [0.5j, 0.0]]))
    assert np.signbit(a.csr.data.real).any()
    got = _entries(a, [0, 1], [1, 0])
    assert not np.signbit(got.real).any() and not np.signbit(got.imag[1])
    assert got.tobytes() == np.array([complex(0.0, -0.5), 0.5j]).tobytes()


def test_entries_of_a_matrix_without_stored_entries():
    got = _entries(SparseMatrix.zeros(4), [0, 3, 2], [1, 3, 0])
    assert got.dtype == np.complex128
    assert got.tobytes() == np.zeros(3, dtype=np.complex128).tobytes()


def test_spmv_is_run_to_run_deterministic(rng):
    a_dense = random_hermitian(128, rng)
    a_dense[rng.random((128, 128)) < 0.6] = 0.0
    a = SparseMatrix.from_dense(a_dense)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    assert np.array_equal(spmv(a, x), spmv(a, x))


@pytest.mark.parametrize("storage", [np.float64, np.complex128])
@pytest.mark.parametrize("vector", [np.float64, np.complex128])
def test_spmv_equals_scipy_dot_bitwise(storage, vector, rng):
    # the direct kernel call must give what scipy's csr.dot gives on the
    # vector spmv has always passed it, for contiguous and strided vectors
    dense = rng.standard_normal((40, 40))
    if storage is np.complex128:
        dense = dense + 1j * rng.standard_normal((40, 40))
    dense[rng.random((40, 40)) < 0.7] = 0.0
    a = SparseMatrix.from_dense(dense)
    if storage is np.float64:
        a = a.rescale(_IDENTITY_SCALING, real=True)
    assert a.csr.data.dtype == storage
    wide = rng.standard_normal(80)
    if vector is np.complex128:
        wide = wide + 1j * rng.standard_normal(80)
    basis = np.eye(40, dtype=vector)
    for x in (wide[:40], wide[::2], wide[40:][::-1], basis[:, 7], basis[13]):
        expected = a.csr.dot(x if x.dtype == a.csr.dtype else x.astype(np.complex128))
        before = matvec_counter.count
        y = spmv(a, x)
        assert matvec_counter.count == before + 1
        assert y.dtype == expected.dtype
        assert y.tobytes() == expected.tobytes()
    before = matvec_counter.count
    with pytest.raises(ValueError, match="dimension mismatch"):
        spmv(a, wide)
    assert matvec_counter.count == before


def test_private_csr_kernel_spmv_relies_on_is_still_there():
    # spmv calls scipy.sparse._sparsetools.csr_matvec, which is private
    # scipy; a scipy release that renames or reshapes it fails here by name
    try:
        from scipy.sparse import _sparsetools
        csr_matvec = _sparsetools.csr_matvec
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"spmv needs scipy.sparse._sparsetools.csr_matvec, which this scipy lacks: {exc}")
    # float64 storage times a complex vector into a complex output, the
    # mixed case spmv passes on unchanged
    indptr = np.array([0, 2, 3], dtype=np.int32)
    indices = np.array([0, 1, 1], dtype=np.int32)
    data = np.array([2.0, -1.0, 3.0])
    x = np.array([1.0 + 1.0j, 0.5j])
    y = np.zeros(2, dtype=np.complex128)
    csr_matvec(2, 2, indptr, indices, data, x, y)
    assert np.array_equal(y, [2.0 + 1.5j, 1.5j])
