"""Direct evaluation of expectation values via a scalar Chebyshev series.

Propagating the full state just to take a trace at every step wastes the
trace's linearity. Pulling the time-dependent coefficients out of the trace
leaves per-order scalars

    tilde_T[q, k] = trace_form(Q_q) @ (T_k(L_s) rho0),

which are precomputed once with the three-term Chebyshev recurrence on
vectors (three live vectors, one matvec per order). Afterwards the
expectation at *any* time t <= tau is a pure scalar sum

    f_q(t) = exp(-i*S*t) * sum_k c_k(t*D) * tilde_T[q, k]

with no matrix work at all. Per-time truncation is safe for t <= tau: the
stopping order is monotone in the rescaled time, so earlier times need only
a prefix of the stored series.

On a grid, one backward Bessel recurrence fills the real table
``J_k(t_i * D)`` for all points at once, and the factors
``(2 - delta_k0) * (-i)^k`` are folded into the stored scalars once per
call. A grid point then costs one real product of length ``n(t_i) + 1`` per
observable and part, plus its share of the Bessel table.
"""

from __future__ import annotations

import json

import numpy as np

from .chebyshev import _coefficient_factors, coefficient_grid, coefficients, stop_order
from .errors import ConfigError, NumericalError
from .sparse import SparseMatrix, spmv
from .spectral import ScalingParams, _rescale_real, extreme_eigs, rescale
from .trace import DEFAULT_EPS, ExpectationTrace, RunRecord, normalize_observables

__all__ = [
    "DECSeries",
    "dec_precompute",
    "dec_evaluate",
    "dec_evaluate_grid",
    "save_series",
    "load_series",
]

#: Sidecar format magic/version tag.
MAGIC = b"DECS1"

#: Relative slack for clamping grid endpoints that land just above tau.
_CLAMP_REL = 1e-12

#: Relative slack on the Cauchy-Schwarz bound of the stored scalars, for
#: roundoff in the vector recurrence.
_BOUND_SLACK = 1e-6


class DECSeries:
    """Precomputed scalar trace series for a set of observables.

    Immutable after construction; evaluation only reads it, so one series
    can serve concurrent grid evaluations.
    """

    def __init__(self, shift: float, half_width: float, tau: float, eps: float,
                 labels, tilde: np.ndarray):
        self.shift = float(shift)
        self.half_width = float(half_width)
        self.tau = float(tau)
        self.eps = float(eps)
        self.labels = tuple(labels)
        self.tilde = np.asarray(tilde, dtype=np.complex128)
        if self.tilde.ndim != 2 or self.tilde.shape[0] != len(self.labels):
            raise ValueError(
                f"tilde must be (n_observables, n_orders), got {self.tilde.shape}"
            )
        self.tilde.flags.writeable = False

    @property
    def n_orders(self) -> int:
        return self.tilde.shape[1]

    def __repr__(self):
        return (
            f"DECSeries(n_orders={self.n_orders}, tau={self.tau}, "
            f"eps={self.eps}, labels={self.labels})"
        )


def dec_precompute(
    l_op: SparseMatrix,
    rho0: np.ndarray,
    observables,
    tau: float,
    eps: float = DEFAULT_EPS,
    scaling: ScalingParams | None = None,
) -> DECSeries:
    """Sweep the Chebyshev vector recurrence once, storing scalar traces.

    Rescales by ``scaling``, then iterates ``t_{k+1} = 2 L_s t_k - t_{k-1}``
    from ``t_0 = rho0``, ``t_1 = L_s rho0``, recording one inner product per
    observable per order. Orders ``0 .. n-1`` are stored where ``n`` is the
    stopping order for ``tau``; that costs exactly ``n - 1`` matvecs, and
    only three state vectors are ever alive.

    The interval: spin-system callers (``run_simulation``, ``dec-precompute``)
    pass the exact one from the sectors of H,
    :meth:`qexpect.spinsys.TraceSystem.spectral_interval`. Without
    ``scaling``, a Lanczos estimate (:func:`qexpect.spectral.extreme_eigs`,
    5 % inflation) is used, as for any operator passed in directly.

    The arithmetic: when every entry of ``l_op`` is real and ``rho0`` is
    purely real or purely imaginary (``rho0 = i*y``), every ``t_k`` is too,
    so the sweep runs on float64 vectors with a float64 copy of ``L_s`` and
    stores ``w @ t_k`` or ``i * (w @ y_k)``. Orders and matvecs are those
    of the complex sweep, and the scalars agree with it to roundoff.
    Otherwise the states are complex.

    ``eps`` bounds the first dropped pair of expansion coefficients, not the
    trace. The trace error of :func:`dec_evaluate` at any ``t <= tau`` stays
    below ``eps * ||w_q|| * ||rho0||`` for observable ``q`` with trace form
    ``w_q`` (2-norms). That rests on ``|tilde[q, k]| <= ||w_q|| * ||rho0||``
    (Cauchy-Schwarz, with the spectrum of ``L_s`` in [-1, 1]), which the
    sweep checks: a larger scalar means the spectral interval misses part of
    the spectrum and the series diverges, so :class:`NumericalError` is
    raised instead of returning it.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    rho0 = np.asarray(rho0, dtype=np.complex128)
    labels, w_rows = normalize_observables(observables, l_op.nrows)
    if scaling is None:
        scaling = extreme_eigs(l_op)

    n_orders = stop_order(tau * scaling.D, eps)
    # real sweep: rho0 = unit * y with y real, and then every T_k(L_s) y is real
    t_prev, unit = rho0, None
    if not np.any(l_op.values.imag):
        if not np.any(rho0.imag):
            t_prev, unit = np.ascontiguousarray(rho0.real), 1
        elif not np.any(rho0.real):
            t_prev, unit = np.ascontiguousarray(rho0.imag), 1j
    l_s = rescale(l_op, scaling) if unit is None else _rescale_real(l_op, scaling)

    # one plain dot per observable per order, so a multi-observable sweep
    # reproduces single-observable runs bit for bit
    def record(k, state):
        for i in range(w_rows.shape[0]):
            tilde[i, k] = w_rows[i] @ state

    tilde = np.empty((len(labels), n_orders), dtype=np.complex128)
    record(0, t_prev)
    if n_orders > 1:
        t_cur = spmv(l_s, t_prev)
        record(1, t_cur)
        for k in range(2, n_orders):
            t_next = spmv(l_s, t_cur)
            t_next *= 2.0
            t_next -= t_prev
            record(k, t_next)
            t_prev, t_cur = t_cur, t_next
    if unit == 1j:
        tilde = 1j * tilde

    bound = (1.0 + _BOUND_SLACK) * np.linalg.norm(w_rows, axis=1) * np.linalg.norm(rho0)
    over = ~(np.abs(tilde) <= bound[:, None])  # NaN counts as over
    if over.any():
        q, k = np.argwhere(over)[0]
        raise NumericalError(
            f"series for {labels[q]!r} diverged at order {k}: |tilde| = "
            f"{abs(tilde[q, k]):.3g} exceeds ||w||*||rho0|| = {bound[q]:.3g}; the "
            f"spectral interval [{scaling.beta:.6g}, {scaling.alpha:.6g}] does "
            "not cover the spectrum of the operator"
        )
    return DECSeries(
        shift=scaling.S,
        half_width=scaling.D,
        tau=tau,
        eps=eps,
        labels=labels,
        tilde=tilde,
    )


def _check_time(series: DECSeries, t: float) -> float:
    if t < 0:
        raise ValueError(f"time {t} is negative")
    if t > series.tau:
        if t <= series.tau * (1.0 + _CLAMP_REL):
            return series.tau
        raise ConfigError(
            f"time {t} exceeds the precomputed horizon tau={series.tau}; "
            "re-run the precomputation with a larger tau"
        )
    return t


def dec_evaluate(series: DECSeries, t: float) -> np.ndarray:
    """Expectations at one time: a scalar Chebyshev sum per observable.

    Truncates the stored series at the stopping order for this particular
    ``t`` (never more than was stored). Exactly ``trace(rho0 Q)`` at t = 0.
    """
    t = _check_time(series, t)
    c = coefficients(t * series.half_width, series.eps).values[: series.n_orders]
    phase = np.exp(-1j * series.shift * t)
    return phase * (series.tilde[:, : c.shape[0]] @ c)


def dec_evaluate_grid(series: DECSeries, times) -> ExpectationTrace:
    """Elementwise :func:`dec_evaluate`; points are independent of each other."""
    times = np.asarray(times, dtype=float)
    bad = np.nonzero((times < 0) | (times > series.tau * (1.0 + _CLAMP_REL)))[0]
    if bad.size:
        raise ConfigError(
            f"grid point {bad[0]} (t={times[bad[0]]}) lies outside "
            f"[0, tau={series.tau}]"
        )
    run = RunRecord("dec", eps=series.eps, n_orders=series.n_orders)
    clamped = np.minimum(times, series.tau)
    j, n_used = coefficient_grid(clamped * series.half_width, series.eps,
                                 series.n_orders - 1)
    # the factors (2 - delta_k0) (-i)^k go into the stored scalars once; each
    # point is then one real product of their real and imaginary parts with
    # the prefix k <= n_used of its Bessel column. One product per point
    # keeps results independent of the other points and their order (a
    # batched product is not)
    scaled = series.tilde * _coefficient_factors(series.n_orders - 1)
    parts = np.concatenate([scaled.real, scaled.imag])
    sums = np.empty((times.shape[0], parts.shape[0]))
    for i, n in enumerate(n_used + 1):
        np.dot(parts[:, :n], j[:n, i], out=sums[i])
    n_obs = len(series.labels)
    values = np.exp(-1j * series.shift * clamped) * (sums[:, :n_obs] + 1j * sums[:, n_obs:]).T
    return run.close(times, series.labels, values)


def save_series(series: DECSeries, path) -> None:
    """Write a series sidecar: magic line, JSON header, raw complex data."""
    header = {
        "shift": series.shift,
        "half_width": series.half_width,
        "tau": series.tau,
        "eps": series.eps,
        "labels": list(series.labels),
        "n_orders": series.n_orders,
        "dtype": "complex128",
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(series.tilde).tobytes())


def load_series(path) -> DECSeries:
    """Read a sidecar written by :func:`save_series`.

    Raises :class:`ConfigError` if the file cannot be read, is not a sidecar,
    lacks a header field or holds one of the wrong type, declares no orders,
    holds a different number of data bytes than its header declares, or its
    header scalars are unusable: each must be finite, with ``tau > 0``,
    ``half_width > 0`` and ``0 < eps < 1``.
    """
    try:
        with open(path, "rb") as fh:
            magic = fh.readline().rstrip(b"\n")
            if magic != MAGIC:
                raise ConfigError(
                    f"{path}: bad magic {magic!r}, expected {MAGIC.decode()} sidecar"
                )
            header_line = fh.readline()
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read series {path}: {exc}") from exc
    try:
        header = json.loads(header_line)
        labels = header["labels"]
        n_obs, n_orders = len(labels), int(header["n_orders"])
        scalars = {key: float(header[key]) for key in ("shift", "half_width", "tau", "eps")}
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: unreadable sidecar header ({exc})") from exc
    if n_orders < 1:
        raise ConfigError(f"{path}: header declares {n_orders} orders, at least 1 is needed")
    if not (np.isfinite(list(scalars.values())).all() and scalars["tau"] > 0
            and scalars["half_width"] > 0 and 0 < scalars["eps"] < 1):
        raise ConfigError(
            f"{path}: unusable sidecar header scalars {scalars}; each must be finite, "
            "with tau > 0, half_width > 0 and 0 < eps < 1"
        )
    if len(raw) != n_obs * n_orders * 16:
        raise ConfigError(
            f"{path}: {len(raw)} data bytes, header declares {n_obs} x {n_orders} "
            "complex128 values; the sidecar is truncated or corrupt"
        )
    tilde = np.frombuffer(raw, dtype=np.complex128).reshape((n_obs, n_orders))
    return DECSeries(labels=labels, tilde=tilde, **scalars)
