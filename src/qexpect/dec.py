"""Direct evaluation of expectation values via a scalar Chebyshev series.

Propagating the full state just to take a trace at every step wastes the
trace's linearity. Pulling the time-dependent coefficients out of the trace
leaves per-order scalars

    tilde_T[q, k] = trace_form(Q_q) @ (T_k(L_s) rho0),

which are precomputed once with the three-term Chebyshev recurrence on
vectors (three live vectors, one matvec per order). When the scalars are
autocorrelations, as for ``ip`` on its trace block, the moment doubling of
the kernel polynomial method stores two orders per matvec. Afterwards the
expectation at *any* time t <= tau is a pure scalar sum

    f_q(t) = exp(-i*S*t) * sum_k c_k(t*D) * tilde_T[q, k]

with no matrix work at all. Every stored order is summed at every time; the
orders dropped at ``tau`` are smaller still at earlier times.

A grid never needs the Bessel functions. The stored scalars are Chebyshev
moments, so a DCT turns them into a line list: amplitudes on ``N``
Chebyshev-Gauss nodes ``x_l``, with ``f_q(t) = sum_l g_ql exp(-i (S + D x_l) t)``
(Weisse, Wellein, Alvermann & Fehske, "The kernel polynomial method",
Rev. Mod. Phys. 78, 275 (2006)). On the uniform grids that simulations
produce, the phase table factors into a coarse and a fine table, so a grid
point costs about ``N`` complex multiply-adds per observable in one matrix
product. The single-time path keeps the Bessel sum, as an independent
reference.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .chebyshev import _check_cauchy_schwarz, _chebyshev_vectors, scalar_coefficients, stop_order
from .errors import ConfigError
from .spectral import ScalingParams, extreme_eigs
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

#: Distance, in ulps of the largest time, within which grid points count as
#: lying on an arithmetic progression; ``dt * np.arange(n)`` and
#: ``np.linspace`` grids keep within one.
_LATTICE_ULPS = 4

#: Times per block of a phase table on a grid that is no progression.
_TIME_BLOCK = 256

#: Lines per block of a longer line list: a block's phase tables stay in
#: cache, where one table over every line of a large list would not.
_LINE_BLOCK = 8192

#: Bytes of amp times the coarse table, the largest temporary of a
#: progression grid, formed at once: rows of amp go through the matrix
#: product as many at a time as fit.
_PRODUCT_BYTES = 1 << 21


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
    l_op,
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
    stopping order for ``tau``; that costs ``n - 1`` matvecs (half that on
    the doubled sweep below), and only three state vectors are ever alive.
    Both sweeps run the recurrence of :mod:`qexpect.chebyshev`, the one that
    :func:`qexpect.chebyshev.chebyshev_series` sums for the ``cheb`` stepper.

    The operator: ``l_op`` is a :class:`SparseMatrix`, or the
    :class:`qexpect.spinsys.SectorOperator` of a trace block, which
    ``run_simulation`` and ``dec-precompute`` pass. The sweep asks either
    kind the same four things: ``real``, ``rescale(scaling, real=...)``,
    ``symmetric`` of the rescaled operator, and ``matvec``, through
    :func:`qexpect.sparse.spmv`. The sector operator folds ``S`` and ``D``
    into its small blocks and carries exact flags; with the same interval
    both kinds store the same orders at the same matvec count, and agree to
    roundoff.

    The interval: spin-system callers (``run_simulation``, ``dec-precompute``)
    pass the exact one from the sectors of H,
    :meth:`qexpect.spinsys.TraceSystem.spectral_interval`. Without
    ``scaling``, a Lanczos estimate (:func:`qexpect.spectral.extreme_eigs`,
    5 % inflation) is used, as for any operator passed in directly.

    The arithmetic: when every entry of ``l_op`` is real and ``rho0`` is
    purely real or purely imaginary (``rho0 = i*y``), every ``t_k`` is too,
    so the sweep runs on float64 vectors with a float64 ``L_s`` and
    stores ``w @ t_k`` or ``i * (w @ y_k)``. Orders and matvecs are those
    of the complex sweep, and the scalars agree with it to roundoff.
    Otherwise the states are complex.

    The doubled sweep: when, on top of that, every trace form is an exact
    multiple of the real start vector, ``w_q == beta_q * y`` entry for entry,
    and the float64 ``L_s`` equals its transpose entry for entry, every
    scalar is ``unit * beta_q * mu_k`` with ``mu_k = y @ T_k(L_s) y``. Then
    ``mu_{2k} = 2 phi_k @ phi_k - mu_0`` and
    ``mu_{2k-1} = 2 phi_k @ phi_{k-1} - mu_1`` (``phi_k = T_k(L_s) y``) give
    two orders per product, so the same ``n`` orders cost
    ``ceil((n - 1) / 2)`` matvecs and agree with the plain sweep to
    roundoff. ``ip`` alone on its trace block qualifies (``rho0`` is
    ``-0.5i`` times its trace form; a form that is zero on the block, such
    as ``iz``'s, is the multiple 0). Mixed sets such as ``ip`` with
    ``ip:0``, ``ix``, complex operators, mixed ``rho0`` and the full space
    do not, and sweep one order per product, as above. Both checks are
    exact, and ``L_s.symmetric`` is asked only once the proportionality
    check has passed.

    ``eps`` bounds the first dropped pair of expansion coefficients, not the
    trace. The trace error of :func:`dec_evaluate` and
    :func:`dec_evaluate_grid` at any ``t <= tau`` stays below
    ``eps * ||w_q|| * ||rho0||`` for observable ``q`` with trace form
    ``w_q`` (2-norms). Both sum every stored order, so the dropped tail
    starts at order ``n`` at every time, and at ``t < tau`` its
    coefficients are smaller than at ``tau``. The grid's line list adds
    aliased orders from ``n + 2*margin + 1`` on, with
    ``margin = max(8, ceil(6 cbrt(tau D)))``, where the coefficients lie
    many decades below ``eps``. The bound rests on
    ``|tilde[q, k]| <= ||w_q|| * ||rho0||`` (Cauchy-Schwarz, with the
    spectrum of ``L_s`` in [-1, 1]), which the sweep checks: a larger
    scalar means the spectral interval misses part of the spectrum and the
    series diverges, so :class:`NumericalError` is raised instead of
    returning it.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    rho0 = np.asarray(rho0, dtype=np.complex128)
    labels, w_rows = normalize_observables(observables, l_op.nrows)
    if scaling is None:
        scaling = extreme_eigs(l_op)

    n_orders = stop_order(tau * scaling.D, eps)
    # real sweep: rho0 = unit * y with y real, and then every T_k(L_s) y is real
    start, unit = rho0, None
    if l_op.real:
        if not np.any(rho0.imag):
            start, unit = np.ascontiguousarray(rho0.real), 1
        elif not np.any(rho0.real):
            start, unit = np.ascontiguousarray(rho0.imag), 1j
    l_s = l_op.rescale(scaling, real=unit is not None)

    # doubled sweep: every w_q = beta_q * y and L_s = L_s^T, so each scalar is
    # beta_q times an autocorrelation moment of y
    beta = None if unit is None else _proportionality(w_rows, start)
    if beta is not None and l_s.symmetric:
        tilde = np.outer(beta, _doubled_moments(l_s, start, n_orders))
    else:
        # one plain dot per observable per order, so a row is bitwise the same
        # in every observable set swept this way; a doubled row agrees with it
        # to roundoff
        tilde = np.empty((len(labels), n_orders), dtype=np.complex128)
        for k, (_, state) in enumerate(_chebyshev_vectors(l_s, start, n_orders - 1)):
            for i in range(w_rows.shape[0]):
                tilde[i, k] = w_rows[i] @ state
    if unit == 1j:
        tilde = 1j * tilde

    _check_cauchy_schwarz(tilde, w_rows, rho0, labels, scaling, "order")
    return DECSeries(
        shift=scaling.S,
        half_width=scaling.D,
        tau=tau,
        eps=eps,
        labels=labels,
        tilde=tilde,
    )


def _proportionality(w_rows: np.ndarray, y: np.ndarray):
    """Factors ``beta`` with ``w_rows[q] == beta[q] * y`` exactly for every row, else None.

    Real and imaginary parts are matched separately. A factor's part
    ``c`` and the quotient at the largest ``|y_j|`` differ by at most one
    ulp unless ``c * y_j`` under- or overflows, so that quotient and its two
    neighbours are the only candidates; a factor missed that way only costs
    the plain sweep.
    """
    j = int(np.argmax(np.abs(y)))
    if not y[j]:
        return None
    parts = []
    for row in np.concatenate([w_rows.real, w_rows.imag]):
        guess = row[j] / y[j]
        for c in (guess, np.nextafter(guess, np.inf), np.nextafter(guess, -np.inf)):
            if np.array_equal(row, c * y):
                parts.append(c)
                break
        else:
            return None
    n_obs = w_rows.shape[0]
    return np.array(parts[:n_obs]) + 1j * np.array(parts[n_obs:])


def _doubled_moments(l_s, y: np.ndarray, n_orders: int) -> np.ndarray:
    """``mu_k = y @ T_k(L_s) y`` for ``k < n_orders``, from ``n_orders // 2`` products.

    For symmetric ``L_s``, ``T_j T_k = (T_{j+k} + T_{|j-k|}) / 2`` gives
    ``mu_{2k} = 2 phi_k @ phi_k - mu_0`` and
    ``mu_{2k-1} = 2 phi_k @ phi_{k-1} - mu_1`` with ``phi_k = T_k(L_s) y``
    (the moment doubling of the kernel polynomial method).
    """
    mu = np.empty(n_orders + 1)
    for k, (prev, cur) in enumerate(_chebyshev_vectors(l_s, y, n_orders // 2)):
        if k == 0:
            mu[0] = cur @ cur
            continue
        mu[2 * k - 1] = cur @ prev if k == 1 else 2.0 * (cur @ prev) - mu[1]
        mu[2 * k] = 2.0 * (cur @ cur) - mu[0]
    return mu[:n_orders]


def _in_horizon(series: DECSeries, times):
    """Whether each time lies in ``[0, tau]``, up to the clamping slack; NaN does not."""
    return (times >= 0.0) & (times <= series.tau * (1.0 + _CLAMP_REL))


def _check_time(series: DECSeries, t: float) -> float:
    if not _in_horizon(series, t):
        raise ConfigError(
            f"time {t} lies outside [0, tau={series.tau}], the precomputed horizon; "
            "a later time needs a precomputation with a larger tau"
        )
    return min(t, series.tau)


def dec_evaluate(series: DECSeries, t: float) -> np.ndarray:
    """Expectations at one time: the stored series summed over every order.

    ``exp(-i*S*t) * tilde @ c(t*D)`` with the coefficients
    ``c_k = (2 - delta_k0) (-i)^k J_k(t*D)``, ``k < n_orders``, from the
    Bessel recurrence. It is the reference for :func:`dec_evaluate_grid`,
    which reaches the same sum by another algorithm. Exactly
    ``trace(rho0 Q)`` at t = 0.
    """
    t = _check_time(series, t)
    c = scalar_coefficients(t * series.half_width, series.n_orders - 1)
    return np.exp(-1j * series.shift * t) * (series.tilde @ c)


def _smooth_length(n: int) -> int:
    """The smallest ``m >= n`` with no prime factor above 5."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _line_list(series: DECSeries):
    """The series as ``(omega, g)``: ``f_q(t) = sum_l g[q, l] exp(-i omega_l t)``.

    ``omega_l = S + D x_l`` on ``N`` Chebyshev-Gauss nodes
    ``x_l = cos(pi (l + 1/2) / N)``, and ``g = DCT-III(tilde)/N`` with
    ``tilde`` zero-padded to ``N`` orders. Discrete orthogonality of
    ``T_k`` on the nodes makes ``sum_l g_l T_k(x_l) = tilde_k`` for
    ``k < N``; orders ``N <= k`` alias back, the first of them onto a
    stored order at ``k = 2N - n_orders + 1``. The margin
    ``N - n_orders >= max(8, ceil(6 cbrt(tau D)))`` is half the cube-root
    start buffer of the Bessel recurrence, so aliasing enters only where
    ``J_k(t D)`` has decayed as far as that recurrence assumes. ``N`` is
    rounded up to a length whose FFT is fast.
    """
    n_orders = series.n_orders
    n = _smooth_length(n_orders + max(8, math.ceil(6.0 * np.cbrt(series.tau * series.half_width))))
    # DCT-III, y_l = mu_0 + 2 sum_k mu_k cos(pi k (l + 1/2) / n): the real part of
    # a 2n-point FFT after a quarter-sample twiddle, so the real and imaginary
    # parts of the moments go through as separate rows
    twiddle = np.exp(-0.5j * np.pi / n * np.arange(n_orders))
    twiddle[1:] *= 2.0
    rows = np.concatenate([series.tilde.real, series.tilde.imag]) * twiddle
    y = np.fft.fft(rows, 2 * n, axis=1)[:, :n].real / n
    n_obs = series.tilde.shape[0]
    nodes = np.cos(np.pi / n * (np.arange(n) + 0.5))
    return series.shift + series.half_width * nodes, y[:n_obs] + 1j * y[n_obs:]


def _progression_step(times: np.ndarray):
    """The step of sorted ``times`` that lie on ``times[0] + step * arange``, else None.

    Points may sit a few ulps of the largest time off the lattice, as
    ``dt * np.arange(n)`` and ``np.linspace`` grids do.
    """
    m = times.shape[0]
    if m < 2:
        return None
    step = (times[-1] - times[0]) / (m - 1)
    lattice = times[0] + step * np.arange(m)
    if np.all(np.abs(times - lattice) <= _LATTICE_ULPS * np.spacing(times[-1])):
        return step
    return None


def _powers(base: np.ndarray, n: int) -> np.ndarray:
    """Rows ``base**k`` for ``k < n``, by repeated multiplication."""
    p = np.empty((n, base.shape[0]), dtype=np.complex128)
    p[0] = 1.0
    p[1:] = base
    return np.cumprod(p, axis=0, out=p)


def _phase_sum(omega: np.ndarray, amp: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``amp @ exp(-1j * outer(omega, times))``, the evaluator of every line list.

    Stored series (see :func:`_line_list`), the exact modes of
    :func:`qexpect.oracle.oracle_expect` and the sector line list of
    :meth:`qexpect.spinsys.TraceSystem.line_list` all go through it.
    ``times`` may come in any order, with repeats and negative values: the
    sum is taken on the sorted distinct times and scattered back, so each
    value depends only on its time and the set of times.

    When the distinct times form an arithmetic progression
    ``t_j = t_0 + j h``, ``j = b B + r`` with ``B = ceil(sqrt(M))`` splits
    each phase into a coarse factor ``exp(-i omega (t_0 + b B h))`` and a
    fine one ``exp(-i omega r h)``, both filled by repeated multiplication;
    matrix products then serve the rows of ``amp``, as many at a time as
    keep their scaled coarse tables within ``_PRODUCT_BYTES``. Other grids take
    the phase table directly, a block of times at a time. A list of more
    than ``_LINE_BLOCK`` lines is summed ``_LINE_BLOCK`` lines at a time.
    """
    if omega.shape[0] > _LINE_BLOCK:
        return sum(_phase_sum(omega[lo : lo + _LINE_BLOCK], amp[:, lo : lo + _LINE_BLOCK], times)
                   for lo in range(0, omega.shape[0], _LINE_BLOCK))
    times, where = np.unique(times, return_inverse=True)
    m = times.shape[0]
    step = _progression_step(times)
    if step is None:
        values = np.empty((amp.shape[0], m), dtype=np.complex128)
        for lo in range(0, m, _TIME_BLOCK):
            block = times[lo : lo + _TIME_BLOCK]
            values[:, lo : lo + block.shape[0]] = amp @ np.exp(-1j * np.outer(omega, block))
    else:
        width = math.isqrt(m - 1) + 1
        n_rows = -(-m // width)
        coarse = _powers(np.exp(-1j * (width * step) * omega), n_rows)
        np.multiply(np.exp(-1j * times[0] * omega), coarse, out=coarse)
        fine = _powers(np.exp(-1j * step * omega), width).T
        per = max(1, _PRODUCT_BYTES // coarse.nbytes)
        scaled = np.empty((min(per, amp.shape[0]), *coarse.shape), dtype=np.complex128)
        blocks = np.empty((amp.shape[0], n_rows, width), dtype=np.complex128)
        for lo in range(0, amp.shape[0], per):
            rows = amp[lo : lo + per]
            part = np.multiply(rows[:, None, :], coarse, out=scaled[: rows.shape[0]])
            np.matmul(part.reshape(-1, omega.shape[0]), fine,
                      out=blocks[lo : lo + per].reshape(-1, width))
        values = blocks.reshape(amp.shape[0], n_rows * width)[:, :m]
    return values[:, where]


def dec_evaluate_grid(series: DECSeries, times) -> ExpectationTrace:
    """:func:`dec_evaluate` at every grid point, through the series' line list.

    The stored series becomes one line list (see :func:`_line_list`),
    summed by :func:`_phase_sum` on the sorted distinct times and scattered
    back to the grid. Each value therefore depends only on its time and the
    set of times, not on their order or repeats. It agrees with
    :func:`dec_evaluate` to roundoff (about 1e-13 of ``max|f|``), and at
    ``t = 0`` it is exactly ``tilde[:, 0]``.

    Raises :class:`ConfigError` for an empty grid and for the first point
    outside ``[0, tau]``, NaN included.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ConfigError("the time grid is empty")
    bad = np.flatnonzero(~_in_horizon(series, times))
    if bad.size:
        raise ConfigError(
            f"grid point {bad[0]} (t={times[bad[0]]}) lies outside "
            f"[0, tau={series.tau}]"
        )
    run = RunRecord("dec", eps=series.eps, n_orders=series.n_orders)
    values = _phase_sum(*_line_list(series), np.minimum(times, series.tau))
    values[:, times == 0.0] = series.tilde[:, :1]
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
    lacks a header field or holds one of the wrong type (``labels`` must be
    a list of strings), declares a ``dtype`` other than ``complex128``,
    declares no labels or no orders, holds a different number of data
    bytes than its header declares or a moment that is not finite, or its
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
        if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
            raise TypeError(f"labels must be a list of strings, got {labels!r}")
        n_obs, n_orders = len(labels), int(header["n_orders"])
        scalars = {key: float(header[key]) for key in ("shift", "half_width", "tau", "eps")}
        dtype = header["dtype"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: unreadable sidecar header ({exc})") from exc
    if dtype != "complex128":
        raise ConfigError(f"{path}: header declares dtype {dtype!r}, only complex128 is read")
    if min(n_obs, n_orders) < 1:
        raise ConfigError(f"{path}: {n_obs} labels and {n_orders} orders hold no series")
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
    if not np.isfinite(tilde).all():
        raise ConfigError(f"{path}: the sidecar holds a non-finite moment")
    return DECSeries(labels=labels, tilde=tilde, **scalars)
