import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpect import (
    NumericalError,
    SparseMatrix,
    build_hamiltonian,
    build_liouvillian,
    extreme_eigs,
    lanczos,
    tridiag_expv,
)

from conftest import random_spin_spec, random_sparse_hermitian


def test_lanczos_breakdown_on_eigenvector():
    fac = lanczos(SparseMatrix.identity(5), np.ones(5), m_max=5)
    assert fac.m == 1
    assert fac.alpha[0] == pytest.approx(1.0)
    assert fac.breakdown


def test_lanczos_two_step_hand_case():
    l_op = SparseMatrix.from_dense(np.diag([0.0, 1.0]))
    v0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    fac = lanczos(l_op, v0, m_max=2)
    assert fac.alpha == pytest.approx([0.5, 0.5])
    assert fac.beta[0] == pytest.approx(0.5)
    # beta[-1] is the trailing residual; 2-dim space is exhausted
    assert fac.beta[-1] == pytest.approx(0.0, abs=1e-14)
    assert fac.breakdown


def test_lanczos_zero_start_vector():
    with pytest.raises(ValueError, match="nonzero"):
        lanczos(SparseMatrix.identity(3), np.zeros(3), m_max=2)


def test_lanczos_ritz_containment(rng):
    l_op = SparseMatrix.from_dense(np.diag(np.arange(1.0, 11.0)))
    v0 = rng.standard_normal(10)
    fac = lanczos(l_op, v0, m_max=6)
    ritz = scipy.linalg.eigh_tridiagonal(fac.alpha, fac.beta[:-1], eigvals_only=True)
    assert ritz.min() >= 1.0 - 1e-10
    assert ritz.max() <= 10.0 + 1e-10


def test_lanczos_orthonormal_and_recurrence(rng):
    l_op = random_sparse_hermitian(60, rng, density=0.3, scale=2.0)
    v0 = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    fac = lanczos(l_op, v0, m_max=25)
    v = fac.basis
    gram = v.conj().T @ v
    assert np.max(np.abs(gram - np.eye(fac.m))) <= 1e-8
    # three-term relation: L V = V T + beta_{m+1} v_{m+1} e_m^T
    t = np.diag(fac.alpha) + np.diag(fac.beta[:-1], 1) + np.diag(fac.beta[:-1], -1)
    resid = l_op.to_dense() @ v - v @ t
    norm_l = np.linalg.norm(l_op.to_dense(), 2)
    assert np.linalg.norm(resid[:, :-1]) <= 1e-10 * norm_l
    # the only residual lives in the final column, with norm beta_{m+1}
    assert np.linalg.norm(resid[:, -1]) == pytest.approx(fac.beta[-1], rel=1e-8)


def test_lanczos_monotone_extremes(rng):
    l_op = random_sparse_hermitian(40, rng, density=0.4, scale=3.0)
    v0 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    prev_lo, prev_hi = np.inf, -np.inf
    for m in (2, 4, 8, 16):
        fac = lanczos(l_op, v0, m_max=m)
        ritz = scipy.linalg.eigh_tridiagonal(
            fac.alpha, fac.beta[:-1], eigvals_only=True
        )
        assert ritz.max() >= prev_hi - 1e-10
        assert ritz.min() <= prev_lo + 1e-10
        prev_lo, prev_hi = ritz.min(), ritz.max()


def test_extreme_eigs_contains_known_spectrum():
    params = extreme_eigs(SparseMatrix.from_dense(np.diag([-2.0, 0.0, 3.0])))
    assert params.beta <= -2.0
    assert params.alpha >= 3.0
    assert params.S == pytest.approx((params.alpha + params.beta) / 2)
    assert params.D == pytest.approx((params.alpha - params.beta) / 2)


def test_extreme_eigs_degenerate_spectrum():
    c = 2.5
    params = extreme_eigs(SparseMatrix.from_dense(c * np.eye(6)))
    assert params.S == pytest.approx(c, abs=1e-10)
    assert 0.0 < params.D <= 1e-6  # inflation floor only


def test_extreme_eigs_contains_liouvillian_spectrum(rng):
    spec = random_spin_spec(3, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    params = extreme_eigs(l_op)
    eigs = np.linalg.eigvalsh(l_op.to_dense())
    assert params.beta <= eigs.min()
    assert params.alpha >= eigs.max()


def test_rescale_maps_into_unit_interval(rng):
    l_op = random_sparse_hermitian(32, rng, density=0.3, scale=5.0)
    params = extreme_eigs(l_op)
    l_s = l_op.rescale(params)
    eigs = np.linalg.eigvalsh(l_s.to_dense())
    assert eigs.min() >= -1.0
    assert eigs.max() <= 1.0


def test_tridiag_expv_scalar():
    a = 0.7
    col = tridiag_expv([a], [], 2.0)
    assert col[0] == pytest.approx(np.exp(-1j * a * 2.0))


def test_tridiag_expv_time_zero(rng):
    alpha = rng.standard_normal(6)
    beta = rng.standard_normal(5)
    col = tridiag_expv(alpha, beta, 0.0)
    e1 = np.zeros(6)
    e1[0] = 1.0
    assert np.allclose(col, e1, atol=1e-14)


def test_tridiag_expv_two_by_two_analytic():
    t = 0.9
    col = tridiag_expv([0.0, 0.0], [1.0], t)
    assert col[0] == pytest.approx(np.cos(t))
    assert col[1] == pytest.approx(-1j * np.sin(t))


def test_tridiag_expv_unitary(rng):
    alpha = rng.standard_normal(20)
    beta = rng.standard_normal(19)
    col = tridiag_expv(alpha, beta, 3.7)
    assert abs(np.linalg.norm(col) - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([1, 2, 7, 25, 26, 64, 128]),
    t=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_tridiag_expv_matches_expm(m, t, seed):
    # LAPACK's ?stevd switches from ?steqr to divide and conquer past m = 25,
    # so m = 25 and m = 26 sit on either side of where eigh_tridiagonal and
    # the direct ?stev call could part
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-1.0, 1.0, m)
    beta = rng.uniform(-1.0, 1.0, m - 1)
    dense = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    ref = scipy.linalg.expm(-1j * t * dense)[:, 0]
    assert np.max(np.abs(tridiag_expv(alpha, beta, t) - ref)) <= 1e-13


def test_tridiagonal_solver_failure_is_a_numerical_error(failing_stev, rng):
    with pytest.raises(NumericalError, match="info=1"):
        tridiag_expv(rng.standard_normal(4), rng.standard_normal(3), 0.5)
    with pytest.raises(NumericalError, match="info=1"):
        extreme_eigs(random_sparse_hermitian(12, rng))


def test_lanczos_rejects_a_non_finite_operator():
    l_op = SparseMatrix.from_dense(np.array([[1.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(NumericalError, match="not finite"):
        lanczos(l_op, np.array([1.0, 1.0]), m_max=2)
