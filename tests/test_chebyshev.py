import math

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpect import (
    NumericalError,
    ResourceError,
    ScalingParams,
    SparseMatrix,
    SpinSystemSpec,
    assemble,
    bessel_sequence,
    build_hamiltonian,
    build_liouvillian,
    cheb_step_propagate,
    chebyshev_series,
    error_bound,
    extreme_eigs,
    initial_state,
    matvec_counter,
    observable_by_name,
    scalar_coefficients,
    spmv,
    stop_order,
)

from qexpect.chebyshev import _bessel_column
from qexpect.cli import benchmark_spec

from conftest import random_hermitian

mp.mp.dps = 40


def bessel_series(t, k):
    """Independent oracle: the defining power series in 40-digit arithmetic."""
    t = mp.mpf(t)
    total = mp.mpf(0)
    for m in range(0, 250):
        total += (-1) ** m * (t / 2) ** (2 * m + k) / (
            mp.factorial(m) * mp.factorial(m + k)
        )
    return float(total)


def test_bessel_zero_argument():
    out = bessel_sequence(0.0, 5)
    assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_bessel_known_values():
    out = bessel_sequence(1.0, 1)
    assert out[0] == pytest.approx(0.765197686558, abs=1e-12)
    assert out[1] == pytest.approx(0.440050585745, abs=1e-12)


def test_bessel_negative_argument_rejected():
    with pytest.raises(ValueError):
        bessel_sequence(-1.0, 3)


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 10.0, 25.0, 50.0])
def test_bessel_against_series_oracle(t):
    out = bessel_sequence(t, 80)
    for k in range(0, 81, 4):
        assert out[k] == pytest.approx(bessel_series(t, k), abs=1e-12)


def test_backward_recurrence_beats_forward_at_high_order():
    # J_20(1): forward recursion from J_0, J_1 explodes past the turning
    # point, the backward pass stays on the decaying solution.
    t = 1.0
    exact = bessel_series(t, 20)
    assert exact == pytest.approx(3.8735030085246547e-25, rel=1e-10)
    assert bessel_sequence(t, 20)[20] == pytest.approx(exact, rel=1e-9)

    j_prev, j_cur = bessel_series(t, 0), bessel_series(t, 1)
    for k in range(1, 20):
        j_prev, j_cur = j_cur, (2.0 * k / t) * j_cur - j_prev
    forward_error = abs(j_cur - exact)
    assert forward_error > 1e6 * abs(exact)  # blown up by orders of magnitude


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 40.0])
def test_bessel_normalization_identity(t):
    out = bessel_sequence(t, 200)
    assert out[0] + 2.0 * np.sum(out[2::2]) == pytest.approx(1.0, abs=1e-12)


def test_coefficient_magnitudes_bounded():
    for t in (0.3, 2.0, 17.0, 44.0):
        c = scalar_coefficients(t, 60)
        assert np.max(np.abs(c)) <= 2.0 + 1e-14


def test_stop_order_zero_time():
    assert stop_order(0.0, 1e-7) == 1


def test_stop_order_near_apriori_bound():
    n = stop_order(10.0, 1e-7)
    assert abs(n - 26) <= 4
    c = np.abs(scalar_coefficients(10.0, n))
    assert math.hypot(c[n - 1], c[n]) < 1e-7
    assert n > 10


def test_stop_order_monotone_in_time():
    eps = 1e-7
    grid = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0]
    orders = [stop_order(t, eps) for t in grid]
    assert orders == sorted(orders)


def test_stop_order_tightens_with_eps():
    assert stop_order(10.0, 1e-4) <= stop_order(10.0, 1e-10)


def test_stop_order_rejects_eps_below_the_smallest_normal_double():
    # eps/2 rounds to 0, so no pair could ever pass and the window would widen forever
    with pytest.raises(ValueError, match="eps must lie in"):
        stop_order(10.0, 5e-324)
    assert stop_order(10.0, np.finfo(float).tiny) > 10


def test_error_bound_reference_values():
    assert error_bound(10.0, 25) == pytest.approx(3.6e-7, rel=0.05)
    assert error_bound(10.0, 20) == pytest.approx(5.0e-4, rel=0.1)


def test_error_bound_monotone_and_guarded():
    values = [error_bound(10.0, m) for m in range(11, 60)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError, match="m > t"):
        error_bound(10.0, 10)
    # t/(2m) rounds to 0 at the smallest subnormal t, where log x has no value
    assert error_bound(0.0, 2) == error_bound(5e-324, 2) == error_bound(1e-310, 2) == 0.0


@pytest.mark.parametrize("dim", [8, 32, 64])
def test_expansion_error_within_apriori_bound(dim, rng):
    # unit-norm vector, spectrum inside [-1, 1]: the bound applies verbatim
    a_dense = random_hermitian(dim, rng)
    a_dense /= np.linalg.norm(np.linalg.eigvalsh(a_dense), np.inf) * 1.0000001
    a = SparseMatrix.from_dense(a_dense)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    for t in (2.0, 5.0, 9.0):
        exact = scipy.linalg.expm(-1j * t * a_dense) @ v
        for m in (int(t) + 3, int(t) + 8, int(t) + 15):
            c = scalar_coefficients(t, m - 1)  # P_{m-1}: m terms
            approx = _direct_sum(a, c, v)
            assert np.linalg.norm(approx - exact) <= error_bound(t, m)


def _direct_sum(a, c, v):
    """Oracle evaluation: plain three-term recurrence on the T_k vectors."""
    t_prev = v.copy()
    total = c[0] * t_prev
    if len(c) > 1:
        t_cur = spmv(a, v)
        total = total + c[1] * t_cur
        for k in range(2, len(c)):
            t_prev, t_cur = t_cur, 2.0 * spmv(a, t_cur) - t_prev
            total = total + c[k] * t_cur
    return total


def test_clenshaw_constant_term(rng):
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    c = scalar_coefficients(0.0, stop_order(0.0, 1e-7))
    out = chebyshev_series(SparseMatrix.identity(6), c, v)
    assert np.allclose(out, c[0] * v)


def test_clenshaw_pure_first_order(rng):
    a = SparseMatrix.from_dense(random_hermitian(5, rng))
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    c = np.array([0.0, 1.0 + 0j])
    assert np.allclose(chebyshev_series(a, c, v), a.to_dense() @ v, atol=1e-14)


def test_clenshaw_matches_direct_summation(rng):
    a_dense = random_hermitian(16, rng)
    a_dense /= np.linalg.norm(np.linalg.eigvalsh(a_dense), np.inf)
    a = SparseMatrix.from_dense(a_dense)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    for order in (10, 33, 64):
        c = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        direct = _direct_sum(a, c, v)
        series = chebyshev_series(a, c, v)
        assert np.linalg.norm(series - direct) <= 1e-12 * np.linalg.norm(direct)


def test_clenshaw_costs_one_matvec_per_order_above_zero(rng):
    a = SparseMatrix.from_dense(random_hermitian(6, rng))
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for order in (0, 1, 2, 7):
        c = rng.standard_normal(order + 1) + 0j
        before = matvec_counter.count
        chebyshev_series(a, c, v)
        assert matvec_counter.count - before == order


def test_clenshaw_dimension_mismatch(rng):
    c = scalar_coefficients(1.0, stop_order(1.0, 1e-7))
    with pytest.raises(ValueError, match="dimension mismatch"):
        chebyshev_series(SparseMatrix.identity(4), c, np.ones(5))


def test_step_propagation_zero_operator():
    l_op = SparseMatrix.zeros(4)
    scaling = extreme_eigs(l_op)
    rho0 = np.array([1.0, 2.0j, 0.0, -1.0])
    w = np.array([0.0, 1.0, 0.0, 0.0])
    trace = cheb_step_propagate(l_op, scaling, rho0, 0.1, 20, {"w": w})
    assert np.allclose(trace.values[0], 2.0j, atol=1e-12)


def test_step_propagation_single_spin_analytic():
    omega = 1.0
    spec = SpinSystemSpec(n=1, omega0=[omega], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    scaling = extreme_eigs(l_op)
    eps = 1e-7
    trace = cheb_step_propagate(
        l_op, scaling, initial_state(1), 0.1, 1000, {"ip": observable_by_name("ip", 1)}, eps=eps
    )
    analytic = -0.5j * np.exp(-1j * omega * trace.times)
    assert np.max(np.abs(trace.values[0] - analytic)) <= 10 * eps


def test_step_propagation_preserves_norm():
    spec = SpinSystemSpec(
        n=2, omega0=[1.0, 1.9], j_coupling=[[0.0, 0.15], [0.15, 0.0]]
    )
    l_op = build_liouvillian(build_hamiltonian(spec))
    scaling = extreme_eigs(l_op)
    eps = 1e-7
    l_s = l_op.rescale(scaling)
    c = scalar_coefficients(0.1 * scaling.D, stop_order(0.1 * scaling.D, eps))
    phase = np.exp(-1j * 0.1 * scaling.S)
    rho = initial_state(2)
    norm0 = np.linalg.norm(rho)
    steps = 200
    for _ in range(steps):
        rho = phase * chebyshev_series(l_s, c, rho)
    assert abs(np.linalg.norm(rho) - norm0) <= steps * eps


@pytest.mark.parametrize("cut", [0.9, 0.8, 0.7])
def test_too_narrow_interval_raises_instead_of_diverging(cut):
    # a half-width cut below the exact one leaves modes outside [-1, 1], which
    # each long step's polynomial amplifies: after 50 steps of dt = 10 the
    # largest |f| is 5e91, 2e296 and NaN times ||w||*||rho0||
    system = assemble(benchmark_spec(4), ("ip", "ix"))
    exact = system.spectral_interval()
    narrow = ScalingParams.from_bounds(exact.S + cut * exact.D, exact.S - cut * exact.D)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="diverged"):
        cheb_step_propagate(system.l_op, narrow, system.rho0, 10.0, 50, system.observables)
    # at dt = 0.1 the same interval still yields an accurate trace
    short = cheb_step_propagate(system.l_op, narrow, system.rho0, 0.1, 50, system.observables)
    reference = cheb_step_propagate(system.l_op, exact, system.rho0, 0.1, 50,
                                    system.observables)
    assert np.max(np.abs(short.values - reference.values)) <= 1e-8 * np.max(
        np.abs(reference.values))


def test_single_coefficient_rule_misfires_at_bessel_zero():
    # at the first zero of J_5 the naive |c_n| < eps rule, scanned from n = 1,
    # stops at n = 5 even though the series still carries an order-one tail;
    # the paired rule of stop_order sails past the zero
    from scipy.special import jn_zeros

    t0 = float(jn_zeros(5, 1)[0])
    n_pair = stop_order(t0, 1e-7)
    c = np.abs(scalar_coefficients(t0, n_pair + 6))
    n_single = 1 + int(np.argmax(c[1:] < 1e-7))
    assert n_single == 5
    assert n_pair > t0
    assert np.sum(c[n_single + 1 :]) > 1.0  # truncated weight is O(1)
    assert math.hypot(c[n_pair - 1], c[n_pair]) < 1e-7


def test_coefficients_terminal_pair_below_eps():
    eps = 1e-7
    for t in (0.5, 3.7, 12.0):
        n = stop_order(t, eps)
        c = np.abs(scalar_coefficients(t, n))
        assert math.hypot(c[-2], c[-1]) < eps
        assert n > t


def test_stop_scan_widens_a_too_small_window(monkeypatch):
    # the a-priori guess always covers the stopping order in practice; force
    # it to fall short so each time is re-run with a wider window
    import qexpect.chebyshev as cheb

    eps = 1e-7
    times = [0.0, 1e-9, 0.3, 7.7, 61.5, 140.0]
    orders = [stop_order(t, eps) for t in times]
    monkeypatch.setattr(cheb, "_order_guess", lambda t, eps: 2)
    assert [stop_order(t, eps) for t in times] == orders


@pytest.mark.parametrize("t", [math.inf, math.nan, 1e20])
def test_stop_order_past_any_array_raises_resource_error(monkeypatch, t):
    # no expansion order reaches an infinite or NaN time, and the one for
    # 1e20 is more than an array can index: each fails before the column is
    # allocated
    import qexpect.chebyshev as cheb

    def no_column(t, n_max):
        raise AssertionError("the Bessel column was allocated")

    monkeypatch.setattr(cheb, "_bessel_column", no_column)
    with pytest.raises(ResourceError):
        stop_order(t, 1e-7)


@settings(max_examples=150, deadline=None)
@given(t=st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(1e-6, 400.0)),
       eps=st.sampled_from([1e-4, 1e-7, 1e-10, 1e-14]))
def test_stop_order_is_the_first_passing_pair(t, eps):
    # the terminal pair passes, and no earlier pair from the first order
    # above t does
    n = stop_order(t, eps)
    c = np.abs(scalar_coefficients(t, n))
    if t == 0.0:
        assert n == 1
        return
    first = max(math.ceil(t) + 1, 2)
    assert n >= first
    assert math.hypot(c[n - 1], c[n]) < eps
    assert not any(math.hypot(c[k - 1], c[k]) < eps for k in range(first, n))


def _bessel_columns_by_cumprod(ts, n_max):
    """Reference kernel: the Miller recurrence of ``_bessel_column`` run on a
    table of columns, its running products formed by one ``np.cumprod`` down
    the columns."""
    t_max = float(ts.max())
    n_eff = max(n_max, math.ceil(t_max))
    top = n_eff + max(20, math.ceil(0.1 * n_eff), math.ceil(12.0 * np.cbrt(t_max)))
    p = np.empty((top + 1, ts.shape[0]))
    p[0] = 1.0
    p[top] = ts / (2.0 * top)
    for k in range(top - 1, 0, -1):
        p[k] = ts / (2.0 * k - ts * p[k + 1])
    p = np.cumprod(p, axis=0)
    return p[: n_max + 1] / (1.0 + 2.0 * p[2::2].sum(axis=0))


@settings(max_examples=60, deadline=None)
@given(
    t=st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-12]),
                st.floats(0.0, 1e-6), st.floats(1e-6, 300.0)),
    extra=st.integers(-200, 40),
)
def test_bessel_columns_equal_the_cumprod_kernel_bitwise(t, extra):
    # zero, subnormal and tiny times, and columns that end below, at or
    # above the turning point
    n_max = max(0, math.ceil(t) + extra)
    j = _bessel_column(t, n_max)
    assert j.shape == (n_max + 1,)
    assert j.tobytes() == _bessel_columns_by_cumprod(np.array([t]), n_max)[:, 0].tobytes()
