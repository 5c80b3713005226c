"""Lanczos tridiagonalisation and the small dense kernels built on it.

Provides the spectral-interval estimate used to rescale operators into
[-1, 1] for polynomial propagation, and the exponential of a Hermitian
tridiagonal matrix used by the step-wise subspace propagator.

One incremental Lanczos loop serves both: :func:`lanczos` runs it to the
requested size, and the Krylov stepper consumes it one vector at a time,
deciding after each vector whether to stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .errors import NumericalError
from .sparse import SparseMatrix, spmv

__all__ = [
    "ScalingParams",
    "lanczos",
    "extreme_eigs",
    "tridiag_expv",
]

#: Relative off-diagonal size below which the recurrence has found an
#: invariant subspace.
BREAKDOWN_TOL = 1e-14

#: Lanczos steps behind a spectral-interval estimate.
INTERVAL_STEPS = 30

#: Interval padding: guards against under-estimated spectral bounds, the
#: dominant failure mode of the [-1, 1] rescaling.
INFLATION = 0.05
INFLATION_FLOOR = 1e-8

_SEED = 0x5EED


@dataclass
class _Factorization:
    """Orthonormal basis plus tridiagonal projection from a Lanczos run.

    ``basis`` holds m orthonormal columns; ``alpha`` the m diagonal entries;
    ``beta`` the m-1 couplings followed by one trailing residual norm
    (``beta[-1]`` is the off-diagonal that *would* couple to vector m+1);
    ``norm0`` the norm of the start vector.
    """

    basis: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    breakdown: bool
    norm0: float

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


def _lanczos_steps(l_op: SparseMatrix, v0: np.ndarray, m_max: int):
    """Grow a Lanczos factorisation of ``l_op`` from ``v0``, one vector per step.

    Yields a :class:`_Factorization` of the first m vectors for m = 1, 2, ...
    up to ``m_max``, and stops after the step whose off-diagonal falls below
    ``BREAKDOWN_TOL`` relative to ``||v0||`` (an invariant subspace was
    found; ``breakdown`` is then set). Every new vector is always
    reorthogonalised against the whole basis.
    """
    v0 = np.asarray(v0, dtype=np.complex128)
    norm0 = np.linalg.norm(v0)
    if norm0 == 0.0:
        raise ValueError("Lanczos start vector must be nonzero")
    if m_max < 1:
        raise ValueError("m_max must be positive")

    dim = v0.shape[0]
    # grow the basis in blocks; a Krylov step typically stops within a few vectors
    basis = np.empty((dim, min(m_max, 16)), dtype=np.complex128)
    alphas = np.empty(m_max)
    betas = np.empty(m_max)

    q = v0 / norm0
    q_prev = np.zeros_like(q)
    beta_prev = 0.0
    for j in range(m_max):
        if j == basis.shape[1]:
            basis = np.concatenate(
                [basis, np.empty((dim, min(m_max, 2 * j) - j), dtype=np.complex128)],
                axis=1,
            )
        basis[:, j] = q
        w = spmv(l_op, q)
        a = np.vdot(q, w).real  # Hermitian operator: diagonal is real
        w -= a * q
        w -= beta_prev * q_prev
        # B_dagger w as conj(B.T conj(w)): avoids copying the basis
        proj = np.conj(basis[:, : j + 1].T @ np.conj(w))
        w -= basis[:, : j + 1] @ proj
        b = math.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag))  # as np.linalg.norm sums it
        if not math.isfinite(b):
            raise NumericalError(f"Lanczos vector {j + 1} is not finite")
        alphas[j] = a
        betas[j] = b
        breakdown = b < BREAKDOWN_TOL * norm0
        yield _Factorization(basis[:, : j + 1], alphas[: j + 1], betas[: j + 1], breakdown,
                             norm0)
        if breakdown:
            return
        w /= b
        q_prev, q = q, w
        beta_prev = b


def lanczos(l_op: SparseMatrix, v0: np.ndarray, m_max: int) -> _Factorization:
    """Three-term recurrence building an orthonormal Krylov basis.

    Returns the final factorisation (``basis``, ``alpha``, ``beta``,
    ``breakdown`` and ``m``). Stops early when the next off-diagonal falls
    below ``BREAKDOWN_TOL`` relative to ``||v0||`` (an invariant subspace was
    found). Full reorthogonalisation is always done; at the subspace sizes
    used here its cost is negligible and it prevents ghost copies of
    converged Ritz values.
    """
    for fac in _lanczos_steps(l_op, v0, m_max):
        pass
    return fac


@dataclass(frozen=True)
class ScalingParams:
    """Spectral interval [beta, alpha] with shift S and half-width D.

    ``S = (alpha + beta) / 2`` and ``D = (alpha - beta) / 2``; the rescaled
    operator ``(L - S*Id) / D`` then has its spectrum inside [-1, 1].
    """

    alpha: float
    beta: float
    S: float
    D: float

    @classmethod
    def from_bounds(cls, alpha: float, beta: float) -> "ScalingParams":
        if beta > alpha:
            raise ValueError(f"lower bound {beta} exceeds upper bound {alpha}")
        return cls(alpha=alpha, beta=beta, S=(alpha + beta) / 2.0, D=(alpha - beta) / 2.0)


def extreme_eigs(l_op: SparseMatrix) -> ScalingParams:
    """Estimate the spectral interval of a Hermitian operator.

    Runs an ``INTERVAL_STEPS``-step Lanczos pass (fewer if ``l_op`` is
    smaller) from a fixed pseudo-random start vector and takes the extreme
    Ritz values, inflated outward by ``INFLATION`` of the half-width plus an
    absolute floor of ``INFLATION_FLOOR``. Deterministic across calls:
    repeated runs produce identical parameters.
    """
    rng = np.random.default_rng(_SEED)
    v0 = rng.standard_normal(l_op.nrows) + 1j * rng.standard_normal(l_op.nrows)
    fac = lanczos(l_op, v0, m_max=min(INTERVAL_STEPS, l_op.nrows))
    ritz = fac.alpha if fac.m == 1 else _tridiag_eig(fac.alpha, fac.beta[:-1], False)[0]
    lo, hi = float(np.min(ritz)), float(np.max(ritz))
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    half = half * (1.0 + INFLATION) + INFLATION_FLOOR
    return ScalingParams.from_bounds(alpha=mid + half, beta=mid - half)


def _tridiag_eig(alpha: np.ndarray, beta: np.ndarray, vectors: bool):
    """Ascending eigenvalues of the m x m (m >= 2) real symmetric tridiagonal T,
    with its eigenvectors as columns when ``vectors`` is set (else ``None``).

    Calls LAPACK ``?stev`` directly: ``?steqr`` with vectors, ``?sterf``
    without. ``scipy.linalg.eigh_tridiagonal`` reaches the same routines
    through ``?stevd`` for m <= 25 (and without vectors at any m), but its
    argument checks cost more than the solve at these sizes. A nonzero
    ``info`` (the QL/QR iteration did not converge) raises
    :class:`NumericalError`.
    """
    lam, u, info = scipy.linalg.lapack.dstev(alpha, beta, compute_v=vectors)
    if info != 0:
        raise NumericalError(f"tridiagonal eigensolver ?stev failed (info={info}) "
                             f"on a {alpha.shape[0]}x{alpha.shape[0]} matrix")
    return lam, (u if vectors else None)


def tridiag_expv(alpha: np.ndarray, beta: np.ndarray, t: float) -> np.ndarray:
    """First column of ``exp(-i*T*t)`` for the real symmetric tridiagonal T.

    ``alpha`` holds the m diagonal entries, ``beta`` the m-1 off-diagonal
    couplings. Uses the dense eigendecomposition of T, which is exact to
    roundoff and cheap at the subspace sizes involved.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.ndim != 1 or alpha.size == 0:
        raise ValueError("alpha must be a nonempty 1-D array")
    if beta.shape != (alpha.size - 1,):
        raise ValueError(f"beta must have length {alpha.size - 1}, got {beta.shape}")
    if alpha.size == 1:
        return np.array([np.exp(-1j * alpha[0] * t)])
    lam, u = _tridiag_eig(alpha, beta, True)
    return u @ (np.exp(-1j * lam * t) * u[0, :])
