"""Dense ground-truth engine: full eigendecomposition and exact evolution.

Every coordinate of the evolving state is a superposition of oscillators at
the eigenfrequencies, so expectations at arbitrary times reduce to phase
sums over modal amplitudes. Exact to roundoff, but dense: dimension is
capped, and beyond the cap callers are pointed at the sparse engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceError
from .sparse import SparseMatrix
from .trace import ExpectationTrace, RunRecord, normalize_observables

__all__ = ["ModeDecomposition", "dense_eig", "mode_amplitudes", "oracle_expect"]

DEFAULT_MAX_DIM = 4096
_TIME_BLOCK = 256


@dataclass
class ModeDecomposition:
    """Hermitian eigendecomposition ``L = X diag(lam) X_dagger``.

    Eigenvalues ascending; ``X`` unitary, so the inverse is the adjoint and
    is never formed explicitly.
    """

    lam: np.ndarray
    X: np.ndarray

    @property
    def dim(self) -> int:
        return self.lam.shape[0]


def dense_eig(l_op: SparseMatrix, max_dim: int = DEFAULT_MAX_DIM) -> ModeDecomposition:
    """Full Hermitian eigendecomposition of the densified operator."""
    if l_op.nrows != l_op.ncols:
        raise ValueError("operator must be square")
    if l_op.nrows > max_dim:
        raise ResourceError(
            f"dimension {l_op.nrows} exceeds the dense cap {max_dim}; "
            "use a sparse engine (dec/cheb/krylov) instead"
        )
    lam, x = np.linalg.eigh(l_op.to_dense())
    return ModeDecomposition(lam=lam, X=x)


def mode_amplitudes(dec: ModeDecomposition, rho0: np.ndarray) -> np.ndarray:
    """Modal amplitudes ``mu = X_dagger rho0`` of an initial state."""
    rho0 = np.asarray(rho0, dtype=np.complex128)
    if rho0.shape != (dec.dim,):
        raise ValueError(f"state has shape {rho0.shape}, expected ({dec.dim},)")
    return dec.X.conj().T @ rho0


def oracle_expect(
    dec: ModeDecomposition,
    rho0: np.ndarray,
    observables,
    times: np.ndarray,
) -> ExpectationTrace:
    """Exact expectations at arbitrary times.

    Folds each observable's trace form through the eigenbasis once, after
    which every time point costs one phase sum: ``f_q(t) = sum_j a_qj
    exp(-i lam_j t)`` with ``a_q = (w_q @ X) * (X_dagger rho0)``.
    """
    times = np.asarray(times, dtype=float)
    labels, w_rows = normalize_observables(observables, dec.dim)
    run = RunRecord("oracle", eps=0.0)
    mu = mode_amplitudes(dec, rho0)
    amp = (w_rows @ dec.X) * mu  # (n_obs, dim)

    values = np.empty((len(labels), times.shape[0]), dtype=np.complex128)
    for lo in range(0, times.shape[0], _TIME_BLOCK):
        block = times[lo : lo + _TIME_BLOCK]
        phases = np.exp(-1j * np.outer(dec.lam, block))
        values[:, lo : lo + block.shape[0]] = amp @ phases

    return run.close(times, labels, values)
