"""Chebyshev propagation machinery.

The exponential of a Hermitian operator with spectrum in [-1, 1] obeys

    exp(-i*z*x) = sum_k (2 - delta_k0) * (-i)^k * J_k(z) * T_k(x),

so applying ``exp(-i*L*t)`` reduces to Bessel coefficients plus a Chebyshev
recurrence in the rescaled operator. This module generates the coefficients,
picks truncation orders, runs the one vector recurrence
``T_{k+1}(L_s) v = 2 L_s T_k(L_s) v - T_{k-1}(L_s) v`` of the package, sums a
polynomial acting on a vector from it, and provides the step-wise
propagation engine. The direct series of :mod:`qexpect.dec` sweeps the same
recurrence.

Every Bessel value comes from one kernel, a backward (Miller) recurrence
over the orders at one time: :func:`bessel_sequence` and
:func:`scalar_coefficients` return its column. Every truncation order
comes from one scan over that column, :func:`stop_order`. A stored series
is evaluated on a grid without Bessel values at all, through its
Chebyshev-Gauss line list (:mod:`qexpect.dec`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ResourceError
from .sparse import SparseMatrix, spmv
from .spectral import ScalingParams
from .trace import (
    DEFAULT_EPS, EPS_MIN, ExpectationTrace, RunRecord, normalize_observables, record_steps,
)

__all__ = [
    "bessel_sequence",
    "scalar_coefficients",
    "stop_order",
    "error_bound",
    "chebyshev_series",
    "cheb_step_propagate",
]

# Powers of (-i): coefficient k carries _PHASES[k % 4].
_PHASES = np.array([1.0, -1.0j, -1.0, 1.0j])

#: Rescaled times from this one on need a Bessel column (the orders above
#: the time, a third more for the guess and a tenth for the buffer, 8 bytes
#: each) larger than an array can address.
_MAX_TIME = np.iinfo(np.intp).max // 16

#: Relative slack on the Cauchy-Schwarz bound of a sweep's scalars, for
#: roundoff in the vector recurrence.
_BOUND_SLACK = 1e-6


def _bessel_column(t: float, n_max: int) -> np.ndarray:
    """``J_0(t) .. J_n_max(t)``.

    Miller's backward recurrence in ratio form, ``r_k = J_k / J_{k-1} =
    t / (2k - t*r_{k+1})``, started from ``r = 0`` at a buffered order above
    both ``n_max`` and ``t``. The buffer absorbs the arbitrary start: it
    must clear the turning point near ``k = t``, where orders only shrink by
    ~``1 - O(t^(-1/3))`` per step (Airy regime), and the cube-root term
    ``12 cbrt(t)`` provides roughly sixteen decades of decay there; the line
    list of :mod:`qexpect.dec` sizes its alias margin as half of it. The
    ratios need no rescaling at any ``t >= 0``, including tiny times where
    the plain recurrence grows past the double range, and ``t = 0`` gives
    exactly ``J_0 = 1``. The running products ``J_k / J_0``, one
    ``cumprod``, are normalised with ``J_0 + 2*sum_k J_2k = 1``.
    """
    n_eff = max(n_max, math.ceil(t))
    top = n_eff + max(20, math.ceil(0.1 * n_eff), math.ceil(12.0 * np.cbrt(t)))
    p = np.empty(top + 1)
    p[0] = 1.0
    r = p[top] = t / (2.0 * top)  # r = 0 above the start order
    for k in range(top - 1, 0, -1):
        r = p[k] = t / (2.0 * k - t * r)
    np.cumprod(p, out=p)
    norm = 1.0 + 2.0 * p[2::2].sum()
    if not math.isfinite(norm):
        raise ArithmeticError(f"Bessel normalisation failed for t = {t}, n={n_max}")
    j = p[: n_max + 1]
    j /= norm
    return j


def bessel_sequence(t: float, n_max: int) -> np.ndarray:
    """Bessel functions of the first kind ``J_0(t) .. J_n(t)``.

    The backward recurrence behind every coefficient (the forward direction
    is unstable once the order exceeds ``t``). Exact at ``t == 0``.
    """
    if t < 0:
        raise ValueError("argument must be non-negative")
    if n_max < 0:
        raise ValueError("order must be non-negative")
    return _bessel_column(float(t), n_max)


def _log_bound(x: float, m: float) -> float:
    """``log(error_bound / 4) = m*(1 - x^2 + log x)`` at ``x = t/(2m)``."""
    return m * (1.0 - x * x + math.log(x))


def error_bound(t: float, m: int) -> float:
    """A-priori truncation bound ``4*(e^(1-(t/2m)^2) * t/(2m))^m``.

    Only valid in the superlinear-decay regime ``m > t``; outside it the
    expansion has not started converging and no bound is returned.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if m <= t:
        raise ValueError(f"bound requires m > t (got m={m}, t={t})")
    x = t / (2.0 * m)  # 0 at t = 0, and at a subnormal t whose quotient rounds to 0
    # log-space keeps very small bounds from rounding through zero prematurely
    return 4.0 * math.exp(_log_bound(x, m)) if x else 0.0


def _order_guess(t: float, eps: float) -> int:
    """Smallest m found with ``error_bound(t, m) < eps``; sizes the scan."""
    m = max(math.ceil(t) + 1, 2)
    log_eps = math.log(eps)
    for _ in range(400):
        x = max(t / (2.0 * m), 1e-300)  # the floor keeps log(x) finite at t = 0
        if math.log(4.0) + _log_bound(x, m) < log_eps:
            break
        m = math.ceil(m * 1.1) + 1
    return m


def _coefficient_factors(n: int) -> np.ndarray:
    """``(2 - delta_k0) * (-i)^k`` for ``k <= n``."""
    factors = 2.0 * _PHASES[np.arange(n + 1) % 4]
    factors[0] = 1.0
    return factors


def stop_order(t_scaled: float, eps: float) -> int:
    """Truncation order for the coefficient series at one rescaled time.

    Returns the smallest ``n > t_scaled`` (and ``n >= 2``) with
    ``sqrt(|c_{n-1}|^2 + |c_n|^2) < eps``, and 1 at ``t_scaled = 0``, where
    ``c_0`` alone is exact. The search starts above ``t_scaled`` because
    below it the coefficients oscillate without decaying and any rule can
    trigger spuriously; starting in the decay region also makes the order
    monotone in ``t_scaled``, which the direct expectation series relies on.
    The rule tests two coefficients because one alone can vanish at a zero
    of its Bessel function long before the expansion converges, silently
    truncating an O(1) tail.

    The scan reads one Bessel column sized by the a-priori order guess;
    without a hit in it, it is run again through the same recurrence with a
    window widened by half. Raises :class:`ResourceError`, before anything
    is allocated, when ``t_scaled`` is not finite or its column would hold
    more orders than an array can address.
    """
    if t_scaled < 0:
        raise ValueError("t_scaled must be non-negative")
    if not EPS_MIN <= eps < 1.0:
        raise ValueError(f"eps must lie in [{EPS_MIN}, 1)")
    t = float(t_scaled)
    if not t < _MAX_TIME:  # inf and NaN included
        raise ResourceError(
            f"no expansion order that an array can address reaches the rescaled time {t}"
        )
    first = max(math.ceil(t) + 1, 2)
    cap = max(_order_guess(t, eps), first) + 8
    while True:
        j = _bessel_column(t, cap)
        # |c_k| = 2|J_k| for every k >= 1 tested, so the pair test against
        # eps is this one on J against eps/2
        hit = np.flatnonzero(np.hypot(j[first - 1 : -1], j[first:]) < 0.5 * eps)
        if hit.size:
            return first + int(hit[0]) if t > 0.0 else 1
        cap = math.ceil(cap * 1.5) + 8


def scalar_coefficients(t_scaled: float, n: int) -> np.ndarray:
    """Coefficients ``c_k = (2 - delta_k0) * (-i)^k * J_k(t_scaled)``, k <= n."""
    return bessel_sequence(t_scaled, n) * _coefficient_factors(n)


def _chebyshev_vectors(l_s, v: np.ndarray, n_products: int):
    """Yield ``(T_{k-1}(L_s) v, T_k(L_s) v)`` for ``k = 0 .. n_products``.

    ``T_{-1}`` is ``None``. ``T_{k+1} = 2 L_s T_k - T_{k-1}`` costs one
    :func:`spmv` per step, and three vectors are alive at a time.
    """
    prev, cur = None, v
    yield prev, cur
    for _ in range(n_products):
        nxt = spmv(l_s, cur)
        if prev is not None:
            nxt *= 2.0
            nxt -= prev
        prev, cur = cur, nxt
        yield prev, cur


def _check_cauchy_schwarz(values: np.ndarray, w_rows: np.ndarray, rho0: np.ndarray, labels,
                          scaling: ScalingParams, where: str, slack: float = _BOUND_SLACK):
    """Raise :class:`NumericalError` at the first ``|values[q, k]|`` above
    ``(1 + slack) * ||w_q|| * ||rho0||``; NaN counts as above.

    Each value is ``w_q @ v`` for a vector ``v`` no longer than ``rho0``
    while the interval ``scaling`` covers the spectrum of the Hermitian
    operator, so a larger one means the Chebyshev series diverged. ``where``
    names the index ``k`` in the message.
    """
    bound = (1.0 + slack) * np.linalg.norm(w_rows, axis=1) * np.linalg.norm(rho0)
    over = ~(np.abs(values) <= bound[:, None])
    if over.any():
        q, k = np.argwhere(over)[0]
        raise NumericalError(
            f"{labels[q]!r} diverged at {where} {k}: |value| = "
            f"{abs(values[q, k]):.3g} exceeds (1 + {slack:.3g})*||w||*||rho0|| = "
            f"{bound[q]:.3g}; the spectral interval [{scaling.beta:.6g}, "
            f"{scaling.alpha:.6g}] does not cover the spectrum of the operator"
        )


def chebyshev_series(l_s, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``c_0 v + sum_{k>=1} c_k T_k(L_s) v``, summed as the recurrence yields ``T_k v``.

    Never forms the polynomials: degree n costs n matvecs, one per order
    above zero.
    """
    v = np.asarray(v, dtype=np.complex128)
    if l_s.ncols != v.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator is {l_s.nrows}x{l_s.ncols}, "
            f"vector has length {v.shape[0]}"
        )
    vectors = _chebyshev_vectors(l_s, v, c.shape[0] - 1)
    total = c[0] * next(vectors)[1]
    for c_k, (_, t_k) in zip(c[1:], vectors):
        total += c_k * t_k
    return total


def cheb_step_propagate(
    l_op: SparseMatrix,
    scaling: ScalingParams,
    rho0: np.ndarray,
    dt: float,
    steps: int,
    observables,
    eps: float = DEFAULT_EPS,
) -> ExpectationTrace:
    """Fixed-polynomial stepping: ``rho_{n+1} = e^{-i*dt*S} P(dt*D)(L_s) rho_n``.

    One coefficient set, through the stopping order for ``dt*D``, serves
    every step since the Hamiltonian is constant; expectations are recorded
    at t = 0 and after each of the ``steps`` steps.

    Propagation is unitary, so ``|f_q(t_n)| <= ||w_q|| * ||rho0||``, up to
    a truncation drift of ``eps`` per step. A recorded value past
    ``(1 + 1e-6 + steps * eps)`` times that bound, or NaN, means the
    interval misses part of the spectrum and the series diverged:
    :class:`NumericalError` is raised instead of returning the trace.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    labels, w_rows = normalize_observables(observables, l_op.nrows)

    run = RunRecord("cheb", eps=eps)
    order = stop_order(dt * scaling.D, eps)
    c = scalar_coefficients(dt * scaling.D, order)
    l_s = l_op.rescale(scaling)
    phase = np.exp(-1j * dt * scaling.S)
    values = record_steps(lambda rho: phase * chebyshev_series(l_s, c, rho),
                          rho0, w_rows, steps)
    _check_cauchy_schwarz(values, w_rows, rho0, labels, scaling, "step",
                          _BOUND_SLACK + steps * eps)
    return run.close(dt * np.arange(steps + 1), labels, values, order=order)
