import numpy as np
import pytest

from qexpect import (
    SparseMatrix,
    matvec_counter,
    spmv,
    trace_form,
)

from conftest import random_hermitian


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


def test_spmv_keeps_real_vectors_real_on_real_storage(rng):
    dense = rng.standard_normal((6, 6))
    dense[rng.random((6, 6)) < 0.5] = 0.0
    complex_op = SparseMatrix.from_dense(dense)
    real_op = SparseMatrix._real(complex_op.csr.real)
    assert real_op.values.dtype == np.float64
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
    assert np.all(np.diff(a.row_offsets) >= 0)


def test_explicit_zeros_pruned():
    a = SparseMatrix.from_triplets([0, 1], [0, 1], [0.0, 2.0], shape=(2, 2))
    assert a.nnz == 1


def test_column_indices_sorted_within_rows():
    a = SparseMatrix.from_triplets([0, 0, 0], [2, 0, 1], [1.0, 2.0, 3.0], shape=(1, 3))
    assert np.array_equal(a.col_indices, [0, 1, 2])


def test_storage_is_immutable():
    a = SparseMatrix.identity(3)
    with pytest.raises(ValueError):
        a.values[0] = 7.0


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
    a = (SparseMatrix._real(dense) if storage is np.float64
         else SparseMatrix.from_dense(dense))
    assert a.values.dtype == storage
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
