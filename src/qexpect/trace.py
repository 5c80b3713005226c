"""Time series of expectation values, shared by all propagation engines.

Also holds the two pieces of bookkeeping every engine shares: the run
record that measures what a run cost, and the loop that samples a stepped
state.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .sparse import SparseMatrix, matvec_counter, trace_form

__all__ = ["ExpectationTrace", "RunRecord", "normalize_observables", "record_steps"]

#: Accuracy target of every engine (see each engine for what it bounds) and
#: of a run that sets none.
DEFAULT_EPS = 1e-7

#: Smallest usable ``eps``, the smallest normal double: below it ``eps/2``
#: can round to 0, and no pair of coefficients passes the truncation test.
EPS_MIN = float(np.finfo(float).tiny)


@dataclass
class ExpectationTrace:
    """Sampled expectation values for one or more observables.

    ``values[q, k]`` is the expectation of observable ``labels[q]`` at
    ``times[k]``. ``metadata`` is filled by the :class:`RunRecord` of the
    engine run that produced the trace (it is empty for a trace read from a
    file).

    Every engine writes the keys ``engine``, ``eps``, ``matvecs`` (sparse
    products between opening and closing the record), ``wall_time_s`` and
    ``warnings`` (a list of strings). The engines add:

    * ``dec``: ``n_orders``, the number of stored series orders;
    * ``cheb``: ``order``, the degree of the step polynomial;
    * ``krylov``: ``m_used_max`` and ``m_used_mean``, the subspace sizes;
    * ``zte``: the ``krylov`` keys, plus ``xi``, ``delta_t``,
      ``window_steps``, ``full_dim`` and ``reduced_dim``; its ``matvecs`` and
      ``wall_time_s`` include the observation window;
    * ``oracle``: nothing (``eps`` is 0).

    ``cli.run_simulation`` adds ``total_matvecs`` and ``total_wall_time_s``
    (the whole run, system build included), ``liouville_dim`` (``4**n``) and
    ``block_dim`` (the coordinates the engine propagated, see
    :func:`qexpect.spinsys.trace_block`; zte's ``full_dim`` is this block's
    dimension). For ``dec`` it sets ``matvecs`` to the products of the
    sweep, as counted (``n_orders - 1``, or ``ceil((n_orders - 1) / 2)`` on
    the doubled sweep of :func:`qexpect.dec.dec_precompute`), and
    ``wall_time_s`` to the time of ``dec_precompute`` (spectral estimate
    included) plus ``dec_evaluate_grid``.
    """

    times: np.ndarray
    labels: tuple[str, ...]
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=np.complex128))
        self.labels = tuple(self.labels)
        if self.values.shape != (len(self.labels), self.times.shape[0]):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.labels)} observables x {self.times.shape[0]} times"
            )
        if not np.all(np.isfinite(self.times)):
            raise ValueError("times must be finite")
        # propagation engines emit strictly increasing grids; arbitrary-order
        # grids are legal (direct series evaluation treats points
        # independently), but downstream spectrum analysis requires a
        # uniform grid and will reject anything else

    @property
    def n_times(self) -> int:
        return self.times.shape[0]


class RunRecord:
    """What one engine run cost, from opening the record to :meth:`close`.

    Opening reads the wall clock and the matvec counter; :meth:`close` reads
    them again and returns the run's trace, whose ``metadata`` holds the
    engine name, the fields given here and to :meth:`close`, ``matvecs``,
    ``wall_time_s`` and the :attr:`warnings` list.
    """

    def __init__(self, engine: str, **fields):
        self.metadata = {"engine": engine, **fields}
        self.warnings = []
        self._matvecs = matvec_counter.count
        self._start = time.perf_counter()

    def cost(self) -> tuple[int, float]:
        """Matvecs and wall seconds spent since the record was opened."""
        return matvec_counter.count - self._matvecs, time.perf_counter() - self._start

    def close(self, times, labels, values, **fields) -> ExpectationTrace:
        matvecs, seconds = self.cost()
        self.metadata.update(fields, matvecs=matvecs, wall_time_s=seconds,
                             warnings=self.warnings)
        return ExpectationTrace(times, labels, values, self.metadata)


def record_steps(step, rho0: np.ndarray, w_rows: np.ndarray, steps: int) -> np.ndarray:
    """Expectations ``W @ rho`` at t = 0 and after each of ``steps`` calls ``rho = step(rho)``."""
    rho = np.asarray(rho0, dtype=np.complex128)
    values = np.empty((w_rows.shape[0], steps + 1), dtype=np.complex128)
    values[:, 0] = w_rows @ rho
    for n in range(1, steps + 1):
        rho = step(rho)
        values[:, n] = w_rows @ rho
    return values


def normalize_observables(observables: Mapping, dim: int):
    """Turn a mapping ``label -> SparseMatrix | 1-D trace-form array`` into ``(labels, W)``.

    ``W`` has one trace-form covector per row, so the expectations of a
    state ``rho`` are ``W @ rho``.
    """
    if not isinstance(observables, Mapping):
        raise TypeError(
            f"observables must map labels to observables, got {type(observables).__name__}"
        )
    if not observables:
        raise ValueError("at least one observable is required")

    rows = []
    for label, obj in observables.items():
        if isinstance(obj, SparseMatrix):
            w = trace_form(obj)
        else:
            w = np.asarray(obj, dtype=np.complex128)
            if w.ndim != 1:
                raise ValueError(f"observable {label!r} must be a matrix or 1-D trace form")
        if w.shape[0] != dim:
            raise ValueError(
                f"observable {label!r} trace form has length {w.shape[0]}, expected {dim}"
            )
        rows.append(w)
    return tuple(observables), np.vstack(rows)
