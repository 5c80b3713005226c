"""Dense ground truth for any Hermitian operator: full eigendecomposition and exact evolution.

Every coordinate of the evolving state is a superposition of oscillators at
the eigenfrequencies, so expectations at arbitrary times reduce to phase
sums over modal amplitudes: a line list, summed by the same evaluator as
the stored series of :mod:`qexpect.dec`. Exact to roundoff, but dense:
dimension is capped, and beyond the cap callers are pointed at the sparse
engines. This is the generic-operator reference of the tests and the
benchmark, capped at :data:`MAX_DIM` Liouville coordinates. The
``oracle`` engine of spin systems never densifies a Liouvillian: it
diagonalises H sector by sector
(:meth:`qexpect.spinsys.TraceSystem.line_list`), under its own cap
:data:`qexpect.spinsys.SECTOR_CAP`, counted in states of the largest kept
sector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dec import _phase_sum
from .errors import ResourceError
from .sparse import SparseMatrix
from .trace import ExpectationTrace, RunRecord, normalize_observables

__all__ = ["ModeDecomposition", "dense_eig", "mode_amplitudes", "oracle_expect"]

#: The largest operator dimension :func:`dense_eig` densifies.
MAX_DIM = 4096


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


def dense_eig(l_op: SparseMatrix) -> ModeDecomposition:
    """Full Hermitian eigendecomposition of the densified operator.

    An operator larger than :data:`MAX_DIM` raises :class:`ResourceError`,
    which points at the sparse engines. ``eigh`` reads one triangle only, so
    an operator that is not Hermitian, to ``1e-12`` of its largest entry,
    raises ``ValueError`` instead.
    """
    if l_op.nrows != l_op.ncols:
        raise ValueError("operator must be square")
    if l_op.nrows > MAX_DIM:
        raise ResourceError(
            f"dimension {l_op.nrows} exceeds the dense cap {MAX_DIM}; "
            "use a sparse engine (dec/cheb/krylov) instead"
        )
    gap = np.abs((l_op.csr - l_op.csr.conj().T).data)
    if np.max(gap, initial=0.0) > 1e-12 * np.max(np.abs(l_op.csr.data), initial=0.0):
        raise ValueError("operator is not Hermitian; the dense oracle solves Hermitian ones only")
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

    Folds each observable's trace form through the eigenbasis once into the
    line list ``f_q(t) = sum_j a_qj exp(-i lam_j t)`` with
    ``a_q = (w_q @ X) * (X_dagger rho0)``, then sums it with
    :func:`qexpect.dec._phase_sum`. Times may come in any order, with
    repeats and negative values.
    """
    times = np.asarray(times, dtype=float)
    labels, w_rows = normalize_observables(observables, dec.dim)
    run = RunRecord("oracle", eps=0.0)
    amp = (w_rows @ dec.X) * mode_amplitudes(dec, rho0)  # (n_obs, dim)
    return run.close(times, labels, _phase_sum(dec.lam, amp, times))
