"""Chebyshev propagation machinery.

The exponential of a Hermitian operator with spectrum in [-1, 1] obeys

    exp(-i*z*x) = sum_k (2 - delta_k0) * (-i)^k * J_k(z) * T_k(x),

so applying ``exp(-i*L*t)`` reduces to Bessel coefficients plus a Chebyshev
recurrence in the rescaled operator. This module generates the coefficients,
picks truncation orders, evaluates the polynomial acting on a vector via the
Clenshaw recurrence, and provides the step-wise propagation engine.

Every Bessel value comes from one kernel, a backward (Miller) recurrence
over a column of orders per time: :func:`bessel_sequence` and
:func:`scalar_coefficients` read one column of it. Every truncation order
comes from one scan over that kernel's column, shared by :func:`stop_order`
and :func:`coefficients`; the latter takes its values from the column the
scan read. A stored series is evaluated on a grid without Bessel values at
all, through its Chebyshev-Gauss line list (:mod:`qexpect.dec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import SparseMatrix, spmv
from .spectral import ScalingParams, rescale
from .trace import DEFAULT_EPS, ExpectationTrace, RunRecord, normalize_observables, record_steps

__all__ = [
    "bessel_sequence",
    "scalar_coefficients",
    "ChebCoefficients",
    "coefficients",
    "stop_order",
    "error_bound",
    "clenshaw_apply",
    "cheb_step_propagate",
]

# Powers of (-i): coefficient k carries _PHASES[k % 4].
_PHASES = np.array([1.0, -1.0j, -1.0, 1.0j])


def _bessel_columns(ts: np.ndarray, n_max: int) -> np.ndarray:
    """``J_0(t) .. J_n_max(t)`` for every time in ``ts``, one column each.

    Miller's backward recurrence in ratio form, ``r_k = J_k / J_{k-1} =
    t / (2k - t*r_{k+1})``, started from ``r = 0`` at a buffered order above
    both ``n_max`` and the largest ``t``. The buffer absorbs the arbitrary
    start: it must clear the turning point near ``k = t``, where orders only
    shrink by ~``1 - O(t^(-1/3))`` per step (Airy regime), and the cube-root
    term ``12 cbrt(t)`` provides roughly sixteen decades of decay there;
    the line list of :mod:`qexpect.dec` sizes its alias margin as half of
    it. The ratios need no rescaling at any ``t >= 0``, including tiny
    times where the plain recurrence grows past the double range, and
    ``t = 0`` gives exactly ``J_0 = 1``. The running products
    ``J_k / J_0``, one ``cumprod`` down the columns, are normalised with
    ``J_0 + 2*sum_k J_2k = 1``. Every caller in the package passes a single
    time.
    """
    t_max = float(ts.max())
    n_eff = max(n_max, math.ceil(t_max))
    top = n_eff + max(20, math.ceil(0.1 * n_eff), math.ceil(12.0 * np.cbrt(t_max)))
    p = np.empty((top + 1, ts.shape[0]))
    p[0] = 1.0
    np.divide(ts, 2.0 * top, out=p[top])  # r = 0 above the start order
    for k in range(top - 1, 0, -1):
        r = p[k]
        np.multiply(ts, p[k + 1], out=r)
        np.subtract(2.0 * k, r, out=r)
        np.divide(ts, r, out=r)
    np.cumprod(p, axis=0, out=p)
    norm = 1.0 + 2.0 * p[2::2].sum(axis=0)
    if not np.all(np.isfinite(norm)):
        raise ArithmeticError(f"Bessel normalisation failed for t <= {t_max}, n={n_max}")
    j = p[: n_max + 1]
    j /= norm
    return j


def bessel_sequence(t: float, n_max: int) -> np.ndarray:
    """Bessel functions of the first kind ``J_0(t) .. J_n(t)``.

    The one-column case of the backward recurrence behind every coefficient
    (the forward direction is unstable once the order exceeds ``t``). Exact
    at ``t == 0``.
    """
    if t < 0:
        raise ValueError("argument must be non-negative")
    if n_max < 0:
        raise ValueError("order must be non-negative")
    return _bessel_columns(np.array([float(t)]), n_max)[:, 0]


def error_bound(t: float, m: int) -> float:
    """A-priori truncation bound ``4*(e^(1-(t/2m)^2) * t/(2m))^m``.

    Only valid in the superlinear-decay regime ``m > t``; outside it the
    expansion has not started converging and no bound is returned.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if m <= t:
        raise ValueError(f"bound requires m > t (got m={m}, t={t})")
    if t == 0.0:
        return 0.0
    x = t / (2.0 * m)
    # log-space keeps very small bounds from rounding through zero prematurely
    log_val = m * (1.0 - x * x + math.log(x))
    return 4.0 * math.exp(log_val)


def _order_guess(ts: np.ndarray, eps: float) -> np.ndarray:
    """Smallest m found with ``error_bound(t, m) < eps`` per time; sizes the scan."""
    m = np.maximum(np.ceil(ts).astype(np.int64) + 1, 2).astype(float)
    log_eps = math.log(eps)
    for _ in range(400):
        x = np.maximum(ts / (2.0 * m), 1e-300)  # the floor keeps log(x) finite at t = 0
        log_bound = math.log(4.0) + m * (1.0 - x * x + np.log(x))
        bad = log_bound >= log_eps
        if not bad.any():
            break
        m = np.where(bad, np.ceil(m * 1.1) + 1.0, m)
    return m.astype(np.int64)


def _first_hit(j: np.ndarray, first: np.ndarray, eps: float) -> np.ndarray:
    """Per column of the table ``j``, the first row ``k >= first`` passing the stopping test.

    Returns -1 for columns with no such row. Rows are tested from each
    column's ``first`` on, in bands of doubling width, so a column costs
    about the rows up to its hit instead of the whole table.
    """
    rows = j.shape[0]
    hit_row = np.full(j.shape[1], -1, dtype=np.int64)
    cols = np.flatnonzero(first < rows)
    start = first[cols]
    width = 16
    while cols.size:
        k = start[:, None] + np.arange(width)
        inside = k < rows
        np.minimum(k, rows - 1, out=k)
        # |c_k| = 2|J_k| for every k >= 1 tested, so the pair test against
        # eps is this one on J against eps/2
        hit = np.hypot(j[k - 1, cols[:, None]], j[k, cols[:, None]]) < 0.5 * eps
        hit &= inside
        found = hit.any(axis=1)
        hit_row[cols[found]] = k[found, hit[found].argmax(axis=1)]
        more = ~found & (start + width < rows)
        cols, start = cols[more], start[more] + width
        width *= 2
    return hit_row


def _stop_scan(ts: np.ndarray, eps: float):
    """Stopping order per time, with the Bessel table it was read from.

    Returns ``(n_stop, j)`` where ``j[k, i] = J_k(ts[i])`` for every k up to
    at least ``n_stop[i]``. The stopping order is the first ``n > t`` (and
    ``n >= 2``) with ``sqrt(|c_{n-1}|^2 + |c_n|^2) < eps``, and 1 at
    ``t = 0``. The table is sized by the a-priori order guess; columns
    without a hit in it are run again through the same recurrence with a
    window widened by half.
    """
    n_t = ts.shape[0]
    first = np.maximum(np.ceil(ts).astype(np.int64) + 1, 2)
    cap = int(np.max(np.maximum(_order_guess(ts, eps), first))) + 8
    n_stop = np.zeros(n_t, dtype=np.int64)
    cols = np.arange(n_t)
    j = part = _bessel_columns(ts, cap)
    while True:
        hit = _first_hit(part, first[cols], eps)
        found = hit >= 0
        n_stop[cols[found]] = hit[found]
        cols = cols[~found]
        if not cols.size:
            break
        cap = math.ceil(cap * 1.5) + 8
        part = _bessel_columns(ts[cols], cap)
        j = np.pad(j, ((0, part.shape[0] - j.shape[0]), (0, 0)))
        j[:, cols] = part
    n_stop[ts == 0.0] = 1  # c_0 alone is exact at t = 0
    return n_stop, j


def _coefficient_factors(n: int) -> np.ndarray:
    """``(2 - delta_k0) * (-i)^k`` for ``k <= n``."""
    factors = 2.0 * _PHASES[np.arange(n + 1) % 4]
    factors[0] = 1.0
    return factors


def _scan_one(t_scaled: float, eps: float):
    """Checked one-time :func:`_stop_scan`: ``(stopping order, J_0.. column)``."""
    if t_scaled < 0:
        raise ValueError("t_scaled must be non-negative")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    n_stop, j = _stop_scan(np.array([float(t_scaled)]), eps)
    return int(n_stop[0]), j[:, 0]


def stop_order(t_scaled: float, eps: float) -> int:
    """Truncation order for the coefficient series at one rescaled time.

    Returns the smallest ``n > t_scaled`` with
    ``sqrt(|c_{n-1}|^2 + |c_n|^2) < eps``. The search starts above
    ``t_scaled`` because below it the coefficients oscillate without
    decaying and any rule can trigger spuriously; starting in the decay
    region also makes the order monotone in ``t_scaled``, which the direct
    expectation series relies on. The rule tests two coefficients because
    one alone can vanish at a zero of its Bessel function long before the
    expansion converges, silently truncating an O(1) tail.
    """
    return _scan_one(t_scaled, eps)[0]


def scalar_coefficients(t_scaled: float, n: int) -> np.ndarray:
    """Coefficients ``c_k = (2 - delta_k0) * (-i)^k * J_k(t_scaled)``, k <= n."""
    return bessel_sequence(t_scaled, n) * _coefficient_factors(n)


@dataclass(frozen=True)
class ChebCoefficients:
    """Expansion coefficients ``c_0 .. c_n`` for one rescaled time.

    From :func:`coefficients`, ``values[k] = (2 - delta_k0) * (-i)^k *
    J_k(t_scaled)`` with the final pair below ``eps`` in the two-coefficient
    sense; :func:`clenshaw_apply` takes any ``values``.
    """

    values: np.ndarray

    @property
    def n_max(self) -> int:
        return self.values.shape[0] - 1


def coefficients(t_scaled: float, eps: float = DEFAULT_EPS) -> ChebCoefficients:
    """Generate coefficients through the stopping order for ``t_scaled``.

    The values come from the Bessel column the stopping order was read from.
    """
    n, j = _scan_one(t_scaled, eps)
    values = j[: n + 1] * _coefficient_factors(n)
    values.flags.writeable = False
    return ChebCoefficients(values)


def clenshaw_apply(l_s: SparseMatrix, coeffs: ChebCoefficients, v: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_k c_k T_k(L_s) v`` by the Clenshaw backward recurrence.

    Never forms the polynomials: degree n costs n matvecs, one per order
    above zero. Closure is the first-kind one, ``c_0 v + L_s b_1 - b_2``.
    """
    v = np.asarray(v, dtype=np.complex128)
    if l_s.ncols != v.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator is {l_s.nrows}x{l_s.ncols}, "
            f"vector has length {v.shape[0]}"
        )
    c = coeffs.values
    n = c.shape[0] - 1
    if n == 0:
        return c[0] * v
    b1 = c[n] * v  # b_{n+1} = b_{n+2} = 0
    b2 = np.zeros_like(v)
    # in place, b_k = 2 L_s b_{k+1} + c_k v - b_{k+2}: addition commutes, so
    # the rounding matches the written-out sum term for term
    for k in range(n - 1, 0, -1):
        t = spmv(l_s, b1)
        t *= 2.0
        t += c[k] * v
        t -= b2
        b1, b2 = t, b1
    t = spmv(l_s, b1)
    t += c[0] * v
    t -= b2
    return t


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

    One coefficient set serves every step since the Hamiltonian is constant;
    expectations are recorded at t = 0 and after each of the ``steps`` steps.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    labels, w_rows = normalize_observables(observables, l_op.nrows)

    run = RunRecord("cheb", eps=eps)
    l_s = rescale(l_op, scaling)
    coeffs = coefficients(dt * scaling.D, eps)
    phase = np.exp(-1j * dt * scaling.S)
    values = record_steps(lambda rho: phase * clenshaw_apply(l_s, coeffs, rho),
                          rho0, w_rows, steps)
    return run.close(dt * np.arange(steps + 1), labels, values, order=coeffs.n_max)
