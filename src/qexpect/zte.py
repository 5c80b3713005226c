"""Zero-track elimination: prune state coordinates that stay quiet early on.

The state is propagated through an initial observation window (one period of
the slowest Larmor frequency); coordinates whose modulus never reaches the
threshold ``xi`` are dropped, and all later propagation runs in the reduced
space. Coordinates that are *exactly* zero through the window are zero
forever (Taylor expansion of the propagator), so pruning those is lossless.
Near-zero coordinates are a heuristic: nearly degenerate frequencies can
beat up to order-one amplitude long after the window, and no convergence
theory exists. :func:`counterexample_f` and :func:`resonant_triplet` encode
the classic failure mode for tests and demos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ResourceError
from .krylov import KrylovWalk, krylov_close, krylov_walk
from .sparse import SparseMatrix
from .spinsys import SpinSystemSpec
from .trace import DEFAULT_EPS, ExpectationTrace, RunRecord, normalize_observables

__all__ = [
    "ZTEReduction",
    "zte_window",
    "zte_detect",
    "zte_propagate",
    "counterexample_f",
    "resonant_triplet",
]

DEFAULT_XI = 1e-6


@dataclass
class ZTEReduction:
    """Outcome of the observation window: kept coordinates and reduced operator.

    ``window_matvecs`` and ``window_s`` are what the window cost. ``window``
    is the window's own run: ``W @ rho`` at t = 0 and after each step, each
    step's ``m_used`` and ``converged``, and the last state. The reduction
    also holds what that run was: its ``dt`` and ``eps``, its own copy of
    ``rho0``, and the observables as ``labels`` and trace-form rows
    ``w_rows``; :func:`zte_propagate` propagates that state and reads those
    forms. When every coordinate is kept, ``l_reduced`` is the operator
    itself.
    """

    kept: np.ndarray
    l_reduced: SparseMatrix
    xi: float
    delta_t: float
    window_steps: int
    full_dim: int
    window_matvecs: int
    window_s: float
    window: KrylovWalk
    dt: float
    eps: float
    rho0: np.ndarray
    labels: tuple
    w_rows: np.ndarray

    @property
    def reduced_dim(self) -> int:
        return self.kept.shape[0]


def zte_window(spec: SpinSystemSpec) -> float:
    """Observation window ``2*pi / min_j |omega0_j|`` over nonzero entries.

    Uses the *smallest* nonzero Larmor frequency, i.e. the longest
    single-spin period; that is the conservative choice. Interacting systems
    can still have slower modes than any bare Larmor period, which is
    exactly where the pruning heuristic can fail.
    """
    nonzero = np.abs(spec.omega0[spec.omega0 != 0.0])
    if nonzero.size == 0:
        raise NumericalError(
            "all Larmor frequencies are zero: the observation window is undefined"
        )
    return 2.0 * np.pi / float(np.min(nonzero))


def zte_detect(
    l_op: SparseMatrix,
    rho0: np.ndarray,
    dt: float,
    delta_t: float,
    observables,
    xi: float = DEFAULT_XI,
    eps: float = DEFAULT_EPS,
) -> ZTEReduction:
    """Propagate through the window and keep coordinates that ever reach xi.

    Each step is one adaptive Krylov step, under the cap
    :data:`qexpect.krylov.M_MAX`. The per-coordinate maximum is taken over
    the sampled steps only (t = 0 included), so bursts between samples can
    be missed; that risk is inherent to the method.

    The window is recorded as a run of its own, sampled by ``observables``
    (a mapping ``label -> SparseMatrix | 1-D trace form``), and the
    reduction keeps a copy of ``rho0``, the forms and the run settings, so
    that :func:`zte_propagate` can continue the window instead of repeating
    it. The record holds ``q * (window_steps + 1)`` complex values for ``q``
    observables, the last state, ``rho0`` and the forms; the window's own
    stepping costs far more. Raises :class:`ConfigError` when ``dt`` is
    longer than the window ``delta_t``, and :class:`ResourceError`, before
    the first step, when ``delta_t / dt`` steps are more than an integer
    index can count; a window that is long but countable still runs, one
    step at a time.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > delta_t:
        raise ConfigError(f"dt={dt} exceeds the observation window delta_t={delta_t:.6g}")
    if not delta_t / dt < np.iinfo(np.intp).max:  # inf included
        raise ResourceError(
            f"the observation window delta_t={delta_t} holds more steps of dt={dt} "
            "than an integer index can count"
        )
    record = RunRecord("zte")
    rho0 = np.array(rho0, dtype=np.complex128)  # a copy: the reduction owns it
    labels, forms = normalize_observables(observables, l_op.nrows)
    max_mod = np.abs(rho0)
    window_steps = int(np.ceil(delta_t / dt - 1e-12))
    window = krylov_walk(l_op, rho0, dt, window_steps, forms, eps=eps,
                         observe=lambda rho: np.maximum(max_mod, np.abs(rho), out=max_mod))

    kept = np.nonzero(max_mod >= xi)[0]
    if kept.size == 0:
        raise NumericalError(
            f"threshold xi={xi} pruned every coordinate; lower it or check rho0"
        )
    window_matvecs, window_s = record.cost()
    return ZTEReduction(
        kept=kept,
        l_reduced=l_op if kept.size == l_op.nrows else l_op.restrict(kept),
        xi=xi,
        delta_t=delta_t,
        window_steps=window_steps,
        full_dim=l_op.nrows,
        window_matvecs=window_matvecs,
        window_s=window_s,
        window=window,
        dt=dt,
        eps=eps,
        rho0=rho0,
        labels=labels,
        w_rows=forms,
    )


def zte_propagate(reduction: ZTEReduction, dt: float, steps: int) -> ExpectationTrace:
    """Krylov propagation of the window's state, restricted to the kept coordinates.

    The state and trace forms are those the window ran with, and so is
    ``eps``; only the step ``dt`` may differ from the window's. Every step,
    as in the window, is capped at :data:`qexpect.krylov.M_MAX`. The state
    and every trace form are restricted to the kept index set; pruned
    coordinates contribute exactly zero to the reported expectations, which
    is the approximation being made. The trace's ``matvecs`` and
    ``wall_time_s`` include the observation window.

    When the window kept every coordinate and ran with this ``dt``, the
    restart would repeat its steps exactly: the first
    ``min(steps, window_steps)`` steps are then read from the window, and
    the rest continue from its last state. The trace is bitwise what the
    restart gives; only ``matvecs`` and the wall time fall. Any other call
    restarts from ``rho0`` in the reduced space.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    red, run = reduction, RunRecord("zte", eps=reduction.eps)
    if red.reduced_dim == red.full_dim and dt == red.dt:
        head = red.window
        rest = krylov_walk(red.l_reduced, head.state, dt, max(steps - red.window_steps, 0),
                           red.w_rows, eps=red.eps)
        walk = KrylovWalk(np.hstack([head.values, rest.values[:, 1:]]), head.m_used + rest.m_used,
                          head.converged + rest.converged, rest.state)
    else:
        walk = krylov_walk(red.l_reduced, red.rho0[red.kept], dt, steps,
                           red.w_rows.take(red.kept, axis=1), eps=red.eps)
    trace = krylov_close(run, dt, steps, red.labels, walk, red.eps)
    trace.metadata.update(
        matvecs=trace.metadata["matvecs"] + red.window_matvecs,
        wall_time_s=trace.metadata["wall_time_s"] + red.window_s,
        xi=red.xi,
        delta_t=red.delta_t,
        window_steps=red.window_steps,
        full_dim=red.full_dim,
        reduced_dim=red.reduced_dim,
    )
    trace.metadata["warnings"].append(
        "zero-track elimination has no error guarantee; pruned "
        f"{red.full_dim - red.reduced_dim} of {red.full_dim} coordinates at xi={red.xi}")
    return trace


def counterexample_f(t):
    """Three nearly degenerate oscillators that defeat threshold pruning.

    ``f(t) = e^{-i 2 pi t} - e^{-i 2 pi 1.001 t}/2 - e^{-i 2 pi 0.999 t}/2``
    stays below ~2e-5 in modulus for a full period of the 1 Hz carrier, yet
    beats up to amplitude 2 near t = 500.
    """
    t = np.asarray(t, dtype=float)
    two_pi = 2.0 * np.pi
    return (
        np.exp(-1j * two_pi * t)
        - 0.5 * np.exp(-1j * two_pi * 1.001 * t)
        - 0.5 * np.exp(-1j * two_pi * 0.999 * t)
    )


def resonant_triplet():
    """A 3-mode Hermitian system realising :func:`counterexample_f`.

    Returns ``(l_op, rho0, w)`` where coordinate 0 of the evolving state
    equals ``counterexample_f(t)`` and ``w`` is the trace form reading it.
    Eigenfrequencies are ``2*pi*(1, 1.001, 0.999)``; the mixing is a real
    orthogonal basis whose first row carries amplitudes (1, -1/2, -1/2).
    """
    lam = 2.0 * np.pi * np.array([1.0, 1.001, 0.999])
    s = 1.0 / np.sqrt(2.0)
    q = np.array([
        [s, -0.5, -0.5],
        [s, 0.5, 0.5],
        [0.0, s, -s],
    ])
    l_dense = q @ np.diag(lam) @ q.T
    mu = np.array([np.sqrt(2.0), 1.0, 1.0])
    rho0 = q @ mu
    w = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    return SparseMatrix.from_dense(l_dense), rho0.astype(np.complex128), w
