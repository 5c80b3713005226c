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
  increments a module-level counter used for cost reporting, also for an
  operator that is not stored as a CSR.
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
    read-only, so instances are safe to share across threads. Only
    :meth:`rescale` with ``real`` set stores float64 instead.

    ``real``, ``symmetric``, :meth:`rescale` and :meth:`matvec` are the
    questions a Chebyshev sweep asks of its operator;
    :class:`qexpect.spinsys.SectorOperator` answers the same ones.
    """

    __slots__ = ("_m",)

    def __init__(self, matrix):
        self._m = _canonical_csr(matrix, np.complex128)

    # -- constructors --------------------------------------------------

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

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The entries ``A[rows[k], cols[k]]``, 0 where nothing is stored.

        Complex128 (float64 after :meth:`rescale` with ``real``); a stored
        ``-0.0`` part reads as ``+0.0``, the sum ``0 + entry``. Read by
        scipy's CSR fancy indexing, which answers an empty index with a
        matrix, so ``rows`` and ``cols`` hold at least one coordinate. The
        call is checked on the scipy in use by ``tests/test_sparse.py``; on
        the declared floor, scipy 1.10, it is unverified.
        """
        return np.asarray(self._m[rows, cols]).ravel() + 0.0

    # -- the operator interface of the Chebyshev sweeps -------------------

    @property
    def real(self) -> bool:
        """Whether every stored entry is real."""
        return not np.any(self._m.data.imag)

    @property
    def symmetric(self) -> bool:
        """Whether the matrix equals its transpose entry for entry.

        Canonical CSR arrays equal the (sorted) CSC arrays of the same matrix
        exactly when it is symmetric.
        """
        m, t = self._m, self._m.tocsc()
        return (np.array_equal(m.indptr, t.indptr) and np.array_equal(m.indices, t.indices)
                and np.array_equal(m.data, t.data))

    def rescale(self, scaling, real: bool = False) -> "SparseMatrix":
        """``(A - S*Id) / D`` for the interval ``scaling``, spectrum mapped into [-1, 1].

        Stored as complex128; with ``real`` set, as float64 holding the real
        part, entry for entry the real part of the complex result, so
        :func:`spmv` keeps real vectors real. The caller picks: a complex
        vector through float64 storage is slower than through complex
        storage.
        """
        if scaling.D <= 0.0:
            raise ValueError("half-width must be positive (inflation floor guarantees this)")
        m = self._m.real if real else self._m
        ident = sp.identity(m.shape[0], dtype=m.dtype, format="csr")
        out = SparseMatrix.__new__(SparseMatrix)
        out._m = _canonical_csr((1.0 / scaling.D) * m + (-scaling.S / scaling.D) * ident,
                                np.float64 if real else np.complex128)
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A x`` by scipy's CSR kernel; :func:`spmv` validates and counts it.

        Complex128, except that a float64 vector times float64 storage stays
        float64. Per-row accumulation runs left to right over the stored
        (sorted) column indices and is single threaded, so results are
        bitwise reproducible.

        The product goes straight to ``csr_matvec`` of the private module
        ``scipy.sparse._sparsetools``: the same call, on the same arrays and
        into the same zeroed output, that ``csr.dot`` ends in, without the
        dispatch chain in front of it, which at a few hundred rows costs
        about as much as the kernel. The call is checked on the scipy in use
        by ``tests/test_sparse.py``; on the declared floor, scipy 1.10, it is
        unverified.
        """
        m = self._m
        if x.dtype != m.dtype:
            x = x.astype(np.complex128)
        # x.dtype is now the upcast of the two; np.result_type would cost about
        # half of what skipping csr.dot's dispatch saves
        y = np.zeros(m.shape[0], dtype=x.dtype)
        _sparsetools.csr_matvec(m.shape[0], m.shape[1], m.indptr, m.indices, m.data, x, y)
        return y

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def spmv(a, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``y = A x``, validated and counted.

    ``a`` is a :class:`SparseMatrix` or any square operator with ``nrows``,
    ``ncols`` and ``matvec(x)``, such as the
    :class:`qexpect.spinsys.SectorOperator` of a trace block; the operator's
    ``matvec`` does the work.
    """
    x = np.asarray(x)
    if x.ndim != 1 or a.ncols != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {a.nrows}x{a.ncols}, vector has length {x.shape}"
        )
    matvec_counter.count += 1
    return a.matvec(x)


def trace_form(q: SparseMatrix) -> np.ndarray:
    """Covector ``w`` with ``w @ vec(M) == trace(M @ Q)`` for every matrix M.

    Under column stacking this is ``vec(Q.T)``, i.e. the entries of ``Q``
    raveled in row-major order: ``w[i + j*n] = Q[j, i]``, read by
    :meth:`SparseMatrix.entries`. The product with a state uses a plain dot
    (no conjugation).
    """
    if q.nrows != q.ncols:
        raise ValueError(f"observable must be square, got {q.nrows}x{q.ncols}")
    n = q.nrows
    return q.entries(*np.divmod(np.arange(n * n), n))
