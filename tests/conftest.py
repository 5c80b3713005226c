import numpy as np
import pytest
import scipy.linalg.lapack

from qexpect import SparseMatrix, SpinSystemSpec


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def failing_stev(monkeypatch):
    """LAPACK ``dstev`` that solves, then reports ``info = 1`` (no convergence)."""
    real = scipy.linalg.lapack.dstev

    def stev(d, e, compute_v=1):
        vals, z, _ = real(d, e, compute_v=compute_v)
        return vals, z, 1

    monkeypatch.setattr(scipy.linalg.lapack, "dstev", stev)


def random_hermitian(dim, rng, scale=1.0):
    """Dense random Hermitian matrix with entries of order ``scale``."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_sparse_hermitian(dim, rng, density=0.2, scale=1.0):
    """Sparse random Hermitian SparseMatrix."""
    a = random_hermitian(dim, rng, scale)
    mask = rng.random((dim, dim)) < density
    mask = mask | mask.T
    np.fill_diagonal(mask, True)
    return SparseMatrix.from_dense(np.where(mask, a, 0.0))


def random_spin_spec(n, rng, f_range=(10.0, 500.0), j_range=(0.0, 20.0),
                     time_unit=1e-3, all_pairs=True):
    """Spin system with Larmor/coupling frequencies drawn in Hz.

    ``time_unit`` converts to angular frequency per time unit; the default
    millisecond base keeps dt=0.1 grids well inside every engine's
    convergent regime (a 0.1 ms dwell is a realistic sampling of signals a
    few hundred Hz wide).
    """
    f_hz = rng.uniform(*f_range, size=n)
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            if all_pairs or b - a <= 2:
                j[a, b] = j[b, a] = rng.uniform(*j_range)
    return SpinSystemSpec(
        n=n,
        omega0=2.0 * np.pi * f_hz * time_unit,
        j_coupling=2.0 * np.pi * j * time_unit,
    )


def same_csr(a, b):
    """Bitwise equality of two SparseMatrix objects: offsets, indices and values."""
    return (np.array_equal(a.csr.indptr, b.csr.indptr)
            and np.array_equal(a.csr.indices, b.csr.indices)
            and np.array_equal(a.csr.data, b.csr.data))
