"""Time series of expectation values, shared by all propagation engines."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .sparse import SparseMatrix, trace_form

__all__ = ["ExpectationTrace", "normalize_observables"]


@dataclass
class ExpectationTrace:
    """Sampled expectation values for one or more observables.

    ``values[q, k]`` is the expectation of observable ``labels[q]`` at
    ``times[k]``. ``metadata`` carries engine name, tolerance, warnings,
    wall time and matvec counts.
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

    def value(self, label: str) -> np.ndarray:
        """Series for one observable."""
        return self.values[self.labels.index(label)]

    @property
    def n_times(self) -> int:
        return self.times.shape[0]


def normalize_observables(observables, dim: int):
    """Turn an observable collection into ``(labels, W)`` trace-form rows.

    Accepts a mapping ``label -> SparseMatrix | 1-D trace-form array`` or an
    iterable of ``(label, value)`` pairs. A bare SparseMatrix/array list gets
    labels ``Q1, Q2, ...``. ``W`` has one trace-form covector per row, so the
    expectations of a state ``rho`` are ``W @ rho``.
    """
    if isinstance(observables, Mapping):
        items = list(observables.items())
    else:
        items = []
        for k, obj in enumerate(observables):
            if isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[0], str):
                items.append(obj)
            else:
                items.append((f"Q{k + 1}", obj))
    if not items:
        raise ValueError("at least one observable is required")

    labels = []
    rows = []
    for label, obj in items:
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
        labels.append(label)
        rows.append(w)
    return tuple(labels), np.vstack(rows)
