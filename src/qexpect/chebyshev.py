"""Chebyshev propagation machinery.

The exponential of a Hermitian operator with spectrum in [-1, 1] obeys

    exp(-i*z*x) = sum_k (2 - delta_k0) * (-i)^k * J_k(z) * T_k(x),

so applying ``exp(-i*L*t)`` reduces to Bessel coefficients plus a Chebyshev
recurrence in the rescaled operator. This module generates the coefficients,
picks truncation orders, evaluates the polynomial acting on a vector via the
Clenshaw recurrence, and provides the step-wise propagation engine.

Every Bessel value comes from one kernel, a backward (Miller) recurrence
over the orders at one time: :func:`bessel_sequence` and
:func:`scalar_coefficients` return its column. Every truncation order
comes from one scan over that column, shared by :func:`stop_order` and
:func:`coefficients`; the latter takes its values from the column the scan
read. A stored series is evaluated on a grid without Bessel values at all,
through its Chebyshev-Gauss line list (:mod:`qexpect.dec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import SparseMatrix, spmv
from .spectral import ScalingParams, rescale
from .trace import (
    DEFAULT_EPS, EPS_MIN, ExpectationTrace, RunRecord, normalize_observables, record_steps,
)

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


def _scan_one(t_scaled: float, eps: float):
    """Stopping order at one time, with the Bessel column it was read from.

    Returns ``(n_stop, j)`` where ``j[k] = J_k(t_scaled)`` for every k up to
    at least ``n_stop``. The stopping order is the first ``n > t`` (and
    ``n >= 2``) with ``sqrt(|c_{n-1}|^2 + |c_n|^2) < eps``, and 1 at
    ``t = 0``. The column is sized by the a-priori order guess; without a
    hit in it, it is run again through the same recurrence with a window
    widened by half.
    """
    if t_scaled < 0:
        raise ValueError("t_scaled must be non-negative")
    if not EPS_MIN <= eps < 1.0:
        raise ValueError(f"eps must lie in [{EPS_MIN}, 1)")
    t = float(t_scaled)
    first = max(math.ceil(t) + 1, 2)
    cap = max(_order_guess(t, eps), first) + 8
    while True:
        j = _bessel_column(t, cap)
        # |c_k| = 2|J_k| for every k >= 1 tested, so the pair test against
        # eps is this one on J against eps/2
        hit = np.flatnonzero(np.hypot(j[first - 1 : -1], j[first:]) < 0.5 * eps)
        if hit.size:
            # c_0 alone is exact at t = 0
            return (first + int(hit[0]) if t > 0.0 else 1), j
        cap = math.ceil(cap * 1.5) + 8


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
