"""Span tracer installed around the public functions of each ``qexpect`` module.

The program is not edited: :meth:`Tracer.installed` swaps every module
attribute through which the package calls a traced function for a wrapper,
and puts the original back on exit. The package binds names at import
(``from .sparse import spmv``), so each function is patched in every
``qexpect`` module that holds it, found by identity.

Two kinds of wrapper:

* a *span* records name, start, end, parent id and the op it belongs to, and
  is kept in memory until the run ends;
* a *leaf* (the hot kernels ``spmv`` and ``tridiag_expv``) is aggregated as a
  call count plus total time, and its time is charged to the enclosing span
  so that span's self time excludes it.

Self time is a span's duration minus the time its child spans cover, minus
the leaf time charged to it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict

__all__ = [
    "Span",
    "Tracer",
    "TARGETS",
    "EXACT_COUNTERS",
    "COUNTER_UNITS",
    "TIME_METRICS",
    "self_times",
    "counters",
    "compare_counters",
    "layer_times",
]

SPAN = "span"
LEAF = "leaf"


class Span:
    """One traced call. ``leaf_s`` is the leaf-call time spent directly inside it."""

    __slots__ = ("sid", "name", "parent", "op", "start", "end", "leaf_s")

    def __init__(self, sid, name, parent, op, start, end=None, leaf_s=0.0):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = end
        self.leaf_s = leaf_s


def self_times(spans) -> dict:
    """Map span id to self time: duration minus child durations minus leaf time.

    The tracer is single-threaded and stack-based, so the children of a span
    are nested in it and disjoint from one another.
    """
    child_s = Counter()
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child_s[s.sid] - s.leaf_s for s in spans}


# -- event hooks: count what each layer did, at its own boundary -------------


def _spmv_bytes(tr, args, kwargs, result):
    # computed, not measured: complex128 values + int32 column indices,
    # int32 row offsets, one input and one output vector
    a = args[0]
    tr.totals["sparse.bytes"] += a.nnz * 20 + (a.nrows + 1) * 4 + 2 * a.nrows * 16


def _liouville_nnz(tr, args, kwargs, result):
    tr.samples["spinsys.liouville_nnz"].append(result.nnz)


def _half_width(tr, args, kwargs, result):
    tr.samples["spectral.half_width"].append(result.D)


def _grid_cells(tr, args, kwargs, result):
    tr.totals["chebyshev.coefficient_cells"] += result[0].size


def _grid_escape(tr, args, kwargs, result):
    if tr.stack and tr.stack[-1].name == "chebyshev.coefficient_grid":
        tr.totals["chebyshev.grid_escapes"] += 1


def _cheb_order(tr, args, kwargs, result):
    tr.samples["chebyshev.order"].append(result.n_max)


def _series_orders(tr, args, kwargs, result):
    tr.samples["dec.orders"].append(result.n_orders)


def _sidecar(tr, args, kwargs, result):
    tr.samples["dec.orders"].append(result.n_orders)
    tr.samples["dec.sidecar_bytes"].append(os.path.getsize(args[0]))


def _krylov_step(tr, args, kwargs, result):
    tr.samples["krylov.m_used"].append(result.m_used)
    if not result.converged:
        tr.totals["krylov.unconverged_steps"] += 1


def _zte_reduction(tr, args, kwargs, result):
    tr.samples["zte.window_steps"].append(result.window_steps)
    tr.samples["zte.kept_frac"].append(result.reduced_dim / result.full_dim)


def _csv_bytes(tr, args, kwargs, result):
    tr.samples["cli.csv_bytes"].append(os.path.getsize(args[1]))


#: (module, function, kind, hook). ``oracle`` is the referee and is never
#: timed; ``trace`` and ``errors`` cost too little to time and fold into
#: their callers, as do helpers such as ``stop_order`` and ``trace_form``.
TARGETS = (
    ("sparse", "spmv", LEAF, _spmv_bytes),
    ("spectral", "tridiag_expv", LEAF, None),
    ("spinsys", "build_hamiltonian", SPAN, None),
    ("spinsys", "build_liouvillian", SPAN, _liouville_nnz),
    ("spinsys", "initial_state", SPAN, None),
    ("spinsys", "observable_by_name", SPAN, None),
    ("spectral", "extreme_eigs", SPAN, _half_width),
    ("spectral", "rescale", SPAN, None),
    ("chebyshev", "coefficient_grid", SPAN, _grid_cells),
    ("chebyshev", "scalar_coefficients", SPAN, _grid_escape),
    ("chebyshev", "coefficients", SPAN, _cheb_order),
    ("chebyshev", "clenshaw_apply", SPAN, None),
    ("chebyshev", "cheb_step_propagate", SPAN, None),
    ("dec", "dec_precompute", SPAN, _series_orders),
    ("dec", "dec_evaluate_grid", SPAN, None),
    ("dec", "load_series", SPAN, _sidecar),
    ("dec", "save_series", SPAN, None),
    ("krylov", "krylov_step", SPAN, _krylov_step),
    ("krylov", "krylov_propagate", SPAN, None),
    ("zte", "zte_window", SPAN, None),
    ("zte", "zte_detect", SPAN, _zte_reduction),
    ("zte", "zte_propagate", SPAN, None),
    ("cli", "run_simulation", SPAN, None),
    ("cli", "write_trace_csv", SPAN, _csv_bytes),
)


class Tracer:
    """Spans, leaf aggregates and event counts of the ops run while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaf = defaultdict(lambda: [0, 0.0])
        self.totals = Counter()
        self.samples = defaultdict(list)
        self.ops = 0
        self.wrappers = set()
        self._patched = []
        self._op = None

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn, hook):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            stat = self.leaf[name]
            stat[0] += 1
            stat[1] += dt
            if self.stack:
                self.stack[-1].leaf_s += dt
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _open(self, name) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, parent, self._op, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qexpect" or name.startswith("qexpect."))]
        by_id = {}
        for mod_name, fn_name, kind, hook in TARGETS:
            home = sys.modules.get(f"qexpect.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:  # renamed or removed upstream: that layer reads 0
                continue
            make = self._leaf_wrapper if kind == LEAF else self._span_wrapper
            wrapper = make(f"{mod_name}.{fn_name}", orig, hook)
            self.wrappers.add(wrapper)
            by_id[id(orig)] = (orig, wrapper)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the duration of the block; always restore."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one user request; every span inside shares its id."""
        self._op = op_id
        span = self._open("bench.op")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None
            self.ops += 1


# -- reductions ------------------------------------------------------------------


def _mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def counters(tr: Tracer) -> dict:
    """Per-op work counts from a traced pass; deterministic for a given seed.

    Counts are totals divided by the number of ops; properties of a call
    (orders, subspace size, kept fraction) are means over the calls made.
    """
    ops = max(tr.ops, 1)
    matvecs, _ = tr.leaf["sparse.spmv"]
    expv, _ = tr.leaf["spectral.tridiag_expv"]
    steps = len(tr.samples["krylov.m_used"])
    return {
        "sparse.matvecs": matvecs / ops,
        "sparse.bytes_per_matvec": tr.totals["sparse.bytes"] / matvecs if matvecs else 0.0,
        "dec.orders": _mean(tr.samples["dec.orders"]),
        "dec.sidecar_bytes": _mean(tr.samples["dec.sidecar_bytes"]),
        "spectral.half_width": _mean(tr.samples["spectral.half_width"]),
        "spectral.tridiag_expv_calls": expv / ops,
        "chebyshev.coefficient_cells": tr.totals["chebyshev.coefficient_cells"] / ops,
        "chebyshev.grid_escapes": tr.totals["chebyshev.grid_escapes"] / ops,
        "chebyshev.order": _mean(tr.samples["chebyshev.order"]),
        "krylov.m_used_mean": _mean(tr.samples["krylov.m_used"]),
        "krylov.expv_per_step": expv / steps if steps else 0.0,
        "krylov.unconverged_steps": tr.totals["krylov.unconverged_steps"] / ops,
        "zte.window_steps": _mean(tr.samples["zte.window_steps"]),
        "zte.kept_frac": _mean(tr.samples["zte.kept_frac"]),
        "spinsys.liouville_nnz": _mean(tr.samples["spinsys.liouville_nnz"]),
        "cli.csv_bytes": _mean(tr.samples["cli.csv_bytes"]),
    }


#: Units of the counters that are not plain counts.
COUNTER_UNITS = {
    "sparse.bytes_per_matvec": "B",
    "dec.sidecar_bytes": "B",
    "cli.csv_bytes": "B",
    "spectral.half_width": "rad/t",
    "krylov.expv_per_step": "ratio",
    "zte.kept_frac": "frac",
}

#: Counters that two runs with the same seed must reproduce exactly.
EXACT_COUNTERS = (
    "sparse.matvecs",
    "dec.orders",
    "chebyshev.order",
    "chebyshev.coefficient_cells",
    "krylov.m_used_mean",
    "zte.window_steps",
    "zte.kept_frac",
    "spinsys.liouville_nnz",
)


def compare_counters(expected: dict, actual: dict) -> list:
    """Differences in the exact counters as readable lines; empty if identical."""
    diffs = []
    for name in EXACT_COUNTERS:
        a, b = expected.get(name), actual.get(name)
        if a != b:
            diffs.append(f"{name}: {a!r} != {b!r}")
    return diffs


#: Per-layer time metric -> the spans (or leaf) whose self time it sums.
TIME_METRICS = {
    "sparse.spmv_s": ("sparse.spmv",),
    "spectral.tridiag_expv_s": ("spectral.tridiag_expv",),
    "spectral.extreme_eigs_s": ("spectral.extreme_eigs",),
    "spectral.rescale_s": ("spectral.rescale",),
    "spinsys.build_s": ("spinsys.build_hamiltonian", "spinsys.build_liouvillian",
                        "spinsys.initial_state", "spinsys.observable_by_name"),
    "dec.precompute_s": ("dec.dec_precompute",),
    "dec.contraction_s": ("dec.dec_evaluate_grid",),
    "dec.load_s": ("dec.load_series",),
    "chebyshev.coefficient_grid_s": ("chebyshev.coefficient_grid",),
    "chebyshev.clenshaw_s": ("chebyshev.clenshaw_apply",),
    "krylov.step_s": ("krylov.krylov_step",),
    "zte.detect_s": ("zte.zte_detect",),
    "zte.propagate_s": ("zte.zte_propagate",),
    "cli.dispatch_s": ("cli.run_simulation",),
    "cli.write_csv_s": ("cli.write_trace_csv",),
}


def layer_times(tr: Tracer):
    """Mean self time per op, by span name and by layer (module).

    Returns ``(by_name, by_layer, op_mean)``. Leaf time is listed under the
    leaf's own name. Self times of all spans plus leaf time sum to the root
    op spans' duration, so the layer shares account for the whole op; the
    ``bench`` layer is time spent in the benchmark's own op code.
    """
    ops = max(tr.ops, 1)
    st = self_times(tr.spans)
    by_name = Counter()
    op_total = 0.0
    for s in tr.spans:
        by_name[s.name] += st[s.sid]
        if s.parent is None:
            op_total += s.end - s.start
    for name, (_, seconds) in tr.leaf.items():
        by_name[name] += seconds
    by_name = {k: v / ops for k, v in by_name.items()}
    by_layer = Counter()
    for name, seconds in by_name.items():
        by_layer[name.split(".", 1)[0]] += seconds
    return by_name, dict(by_layer), op_total / ops
