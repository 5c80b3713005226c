"""Complex sparse matrices (CSR) and the kernels every engine consumes.

The storage and the matrix-vector kernel are backed by ``scipy.sparse``;
this module pins down the conventions the rest of the package relies on:

* matrices are canonical CSR (duplicates summed, column indices sorted per
  row, entries that are exactly zero dropped) and immutable after
  construction;
* density matrices are vectorised by column stacking, ``vec(M)[i + j*m] =
  M[i, j]``, so ``vec(A X B) = kron(B.T, A) vec(X)``. ``vec`` and ``kron``
  are notation here, not functions: in numpy, ``vec(M)`` is
  ``M.ravel(order="F")`` and its inverse ``v.reshape((m, m), order="F")``;
* every sparse matrix-vector product goes through :func:`spmv`, which
  increments a module-level counter used for cost reporting.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

__all__ = [
    "SparseMatrix",
    "matvec_counter",
    "spmv",
    "trace_form",
]


class MatvecCounter:
    """Running count of sparse matrix-vector products.

    Purely instrumentation: :func:`spmv` adds one to ``count`` per product,
    and engines snapshot it around a run to report the number of matvecs
    honestly. Not meant to be thread safe.
    """

    def __init__(self):
        self.count = 0

    def reset(self) -> int:
        """Zero the counter and return the previous value."""
        previous = self.count
        self.count = 0
        return previous


matvec_counter = MatvecCounter()


def _canonical_csr(matrix, dtype) -> sp.csr_matrix:
    # copy unconditionally: the input may share (frozen) buffers with
    # another instance, and canonicalisation mutates in place
    m = sp.csr_matrix(matrix, dtype=dtype, copy=True)
    m.sum_duplicates()
    m.sort_indices()
    m.eliminate_zeros()
    m.data.flags.writeable = False
    m.indices.flags.writeable = False
    m.indptr.flags.writeable = False
    return m


class SparseMatrix:
    """Immutable complex matrix in compressed sparse row form.

    Construction canonicalises the data: duplicate triplets are summed,
    column indices are sorted within each row, and stored entries equal to
    zero are removed (exact-zero pruning only; threshold pruning is a model
    reduction concern, not a storage one). The underlying arrays are marked
    read-only, so instances are safe to share across threads.
    """

    __slots__ = ("_m",)

    def __init__(self, matrix):
        self._m = _canonical_csr(matrix, np.complex128)

    # -- constructors --------------------------------------------------

    @classmethod
    def _real(cls, matrix) -> "SparseMatrix":
        """Float64 storage, canonicalised alike, for a matrix whose entries are real.

        Only the real-arithmetic sweep of ``dec_precompute`` builds one;
        :func:`spmv` then keeps real vectors real.
        """
        self = cls.__new__(cls)
        self._m = _canonical_csr(matrix, np.float64)
        return self

    @classmethod
    def from_triplets(cls, rows, cols, values, shape) -> "SparseMatrix":
        """Build from (row, col, value) triplets; duplicates are summed."""
        coo = sp.coo_matrix(
            (np.asarray(values, dtype=np.complex128), (rows, cols)), shape=shape
        )
        return cls(coo)

    @classmethod
    def from_dense(cls, array) -> "SparseMatrix":
        return cls(sp.csr_matrix(np.asarray(array, dtype=np.complex128)))

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(sp.identity(n, dtype=np.complex128, format="csr"))

    @classmethod
    def zeros(cls, nrows: int, ncols: int | None = None) -> "SparseMatrix":
        ncols = nrows if ncols is None else ncols
        return cls(sp.csr_matrix((nrows, ncols), dtype=np.complex128))

    # -- views ----------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self._m.shape[0]

    @property
    def ncols(self) -> int:
        return self._m.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._m.shape

    @property
    def nnz(self) -> int:
        return self._m.nnz

    @property
    def row_offsets(self) -> np.ndarray:
        return self._m.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self._m.indices

    @property
    def values(self) -> np.ndarray:
        return self._m.data

    @property
    def csr(self) -> sp.csr_matrix:
        """Underlying scipy matrix (read-only buffers)."""
        return self._m

    def to_dense(self) -> np.ndarray:
        return self._m.toarray()

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self._m.transpose())

    def restrict(self, indices) -> "SparseMatrix":
        """Sub-matrix on the given row/column index set (kept in order)."""
        idx = np.asarray(indices, dtype=np.intp)
        return SparseMatrix(self._m[idx][:, idx])

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def spmv(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``y = A x``.

    Per-row accumulation runs left to right over the stored (sorted) column
    indices and is single threaded, so results are bitwise reproducible.
    The product is complex128, except that a float64 vector times a matrix
    with float64 storage (see ``SparseMatrix._real``) stays float64.

    The product goes straight to scipy's CSR kernel, ``csr_matvec`` of the
    private module ``scipy.sparse._sparsetools``: the same call, on the same
    arrays and into the same zeroed output, that ``csr.dot`` ends in, without
    the dispatch chain in front of it, which at a few hundred rows costs
    about as much as the kernel. The call is checked on the scipy in use by
    ``tests/test_sparse.py``; on the declared floor, scipy 1.10, it is
    unverified.
    """
    x = np.asarray(x)
    if x.ndim != 1 or a.ncols != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {a.nrows}x{a.ncols}, vector has length {x.shape}"
        )
    matvec_counter.count += 1
    m = a.csr
    if x.dtype != m.dtype:
        x = x.astype(np.complex128)
    # x.dtype is now the upcast of the two; np.result_type would cost about
    # half of what skipping csr.dot's dispatch saves
    y = np.zeros(m.shape[0], dtype=x.dtype)
    _sparsetools.csr_matvec(m.shape[0], m.shape[1], m.indptr, m.indices, m.data, x, y)
    return y


def trace_form(q: SparseMatrix) -> np.ndarray:
    """Covector ``w`` with ``w @ vec(M) == trace(M @ Q)`` for every matrix M.

    Under column stacking this is ``vec(Q.T)``, i.e. the entries of ``Q``
    raveled in row-major order. The product with a state uses a plain dot
    (no conjugation).
    """
    if q.nrows != q.ncols:
        raise ValueError(f"observable must be square, got {q.nrows}x{q.ncols}")
    n = q.nrows
    w = np.zeros(n * n, dtype=np.complex128)
    coo = q.csr.tocoo()
    # w[row*n + col] = Q[row, col], which is vec(Q.T) under column stacking
    np.add.at(w, coo.row * n + coo.col, coo.data)
    return w
