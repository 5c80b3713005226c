import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qexpect import (
    ConfigError,
    NumericalError,
    ScalingParams,
    SparseMatrix,
    SpinSystemSpec,
    assemble,
    build_hamiltonian,
    build_liouvillian,
    dec_evaluate,
    dec_evaluate_grid,
    dec_precompute,
    dense_eig,
    extreme_eigs,
    initial_state,
    load_series,
    matvec_counter,
    normalize_observables,
    observable_by_name,
    oracle_expect,
    save_series,
    spmv,
    trace_form,
)
import qexpect.chebyshev as chebyshev_module
import qexpect.dec as dec_module
from qexpect.chebyshev import stop_order
from qexpect.cli import benchmark_spec
from qexpect.trace import DEFAULT_EPS

from conftest import random_hermitian, random_spin_spec


def test_zero_operator_series_pattern():
    l_op = SparseMatrix.zeros(4)
    rho0 = np.array([0.5, -0.25j, 0.25j, -0.5])
    q = SparseMatrix.from_dense(np.diag([1.0, -1.0]))
    series = dec_precompute(l_op, rho0, {"q": q}, tau=1.0)
    f0 = trace_form(q) @ rho0
    # T_k(0) alternates 1, 0, -1, 0, ...
    expected = [f0, 0.0, -f0][: series.n_orders]
    assert np.allclose(series.tilde[0], expected, atol=1e-12)
    assert dec_evaluate(series, 0.7)[0] == pytest.approx(f0, abs=1e-9)


def test_single_spin_analytic_reconstruction():
    omega = 1.0
    spec = SpinSystemSpec(n=1, omega0=[omega], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    eps = 1e-7
    tau = 100.0
    series = dec_precompute(l_op, initial_state(1), {"ip": observable_by_name("ip", 1)},
                            tau=tau, eps=eps)
    times = np.linspace(0.0, tau, 501)
    trace = dec_evaluate_grid(series, times)
    analytic = -0.5j * np.exp(-1j * omega * times)
    assert np.max(np.abs(trace.values[0] - analytic)) <= 10 * eps


def test_evaluate_at_zero_is_exact_trace():
    spec = SpinSystemSpec(n=2, omega0=[1.0, 2.0], j_coupling=np.zeros((2, 2)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(2)
    q = observable_by_name("ip", 2)
    series = dec_precompute(l_op, rho0, {"ip": q}, tau=5.0)
    assert dec_evaluate(series, 0.0)[0] == pytest.approx(trace_form(q) @ rho0, abs=1e-13)


def test_single_spin_half_period():
    omega = 1.0
    spec = SpinSystemSpec(n=1, omega0=[omega], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(l_op, initial_state(1), {"ip": observable_by_name("ip", 1)}, tau=4.0)
    val = dec_evaluate(series, np.pi / omega)[0]
    assert val == pytest.approx(0.5j, abs=1e-7)


def test_multi_observable_matches_single_runs(rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(2)
    obs_p, obs_z = observable_by_name("ip", 2), observable_by_name("iz", 2)
    both = dec_precompute(l_op, rho0, {"ip": obs_p, "iz": obs_z}, tau=10.0)
    only_p = dec_precompute(l_op, rho0, {"ip": obs_p}, tau=10.0)
    only_z = dec_precompute(l_op, rho0, {"iz": obs_z}, tau=10.0)
    assert np.array_equal(both.tilde[0], only_p.tilde[0])
    assert np.array_equal(both.tilde[1], only_z.tilde[0])


def test_matches_oracle_on_random_system(rng):
    spec = random_spin_spec(3, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(3)
    obs = {"ip": observable_by_name("ip", 3)}
    eps = 1e-7
    tau = 50.0
    series = dec_precompute(l_op, rho0, obs, tau=tau, eps=eps)
    times = np.linspace(0.0, tau, 21)
    mine = dec_evaluate_grid(series, times)
    ref = oracle_expect(dense_eig(l_op), rho0, obs, times)
    assert np.max(np.abs(mine.values - ref.values)) <= 1e-6


def test_precompute_matvec_count(rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    # count only the recurrence matvecs, not the spectral-interval pass
    from qexpect.spectral import extreme_eigs

    scaling = extreme_eigs(l_op)
    matvec_counter.reset()
    series = dec_precompute(l_op, initial_state(2), {"ip": observable_by_name("ip", 2)},
                            tau=20.0, scaling=scaling)
    assert matvec_counter.count == series.n_orders - 1


def test_grid_evaluation_needs_no_matvecs(rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(l_op, initial_state(2), {"ip": observable_by_name("ip", 2)}, tau=100.0)
    matvec_counter.reset()
    trace = dec_evaluate_grid(series, 0.1 * np.arange(1000))
    assert matvec_counter.count == 0
    assert trace.metadata["matvecs"] == 0


def test_prefix_equals_shorter_horizon(rng):
    spec = random_spin_spec(3, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(3)
    obs = {"ip": observable_by_name("ip", 3)}
    eps = 1e-7
    long = dec_precompute(l_op, rho0, obs, tau=100.0, eps=eps)
    short = dec_precompute(l_op, rho0, obs, tau=10.0, eps=eps)
    for t in (0.0, 3.3, 10.0):
        a = dec_evaluate(long, t)[0]
        b = dec_evaluate(short, t)[0]
        assert abs(a - b) <= 10 * eps


def test_hermitian_observable_real_series(rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(l_op, initial_state(2), {"iz": observable_by_name("iz", 2)}, tau=50.0)
    trace = dec_evaluate_grid(series, np.linspace(0.0, 50.0, 200))
    assert np.max(np.abs(trace.values[0].imag)) <= 1e-9


def test_time_beyond_horizon_rejected_and_clamped():
    spec = SpinSystemSpec(n=1, omega0=[1.0], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(l_op, initial_state(1), {"ip": observable_by_name("ip", 1)}, tau=10.0)
    for t in (10.5, -0.5, float("nan")):
        with pytest.raises(ConfigError, match="horizon"):
            dec_evaluate(series, t)
    # endpoint rounding is clamped, not rejected
    val = dec_evaluate(series, 10.0 * (1.0 + 1e-13))
    assert val[0] == pytest.approx(dec_evaluate(series, 10.0)[0], abs=1e-9)


def test_grid_error_names_offending_index():
    spec = SpinSystemSpec(n=1, omega0=[1.0], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(l_op, initial_state(1), {"ip": observable_by_name("ip", 1)}, tau=1.0)
    for times, match in [([0.0, 0.5, 1.5], "grid point 2"),
                         ([0.0, float("nan"), 0.5], r"grid point 1 \(t=nan\)"),
                         ([0.0, 0.5, float("inf")], r"grid point 2 \(t=inf\)"),
                         ([], "empty")]:
        with pytest.raises(ConfigError, match=match):
            dec_evaluate_grid(series, times)


def test_precompute_rejects_bad_tau():
    l_op = SparseMatrix.identity(4)
    with pytest.raises(ValueError, match="tau"):
        dec_precompute(l_op, np.ones(4), {"w": np.ones(4)}, tau=0.0)


def test_sidecar_roundtrip(tmp_path, rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(
        l_op, initial_state(2),
        {"ip": observable_by_name("ip", 2), "iz": observable_by_name("iz", 2)}, tau=25.0,
    )
    path = tmp_path / "series.decs"
    save_series(series, path)
    loaded = load_series(path)
    assert loaded.labels == series.labels
    assert loaded.tau == series.tau
    assert loaded.eps == series.eps
    assert np.array_equal(loaded.tilde, series.tilde)
    times = np.linspace(0.0, 25.0, 50)
    assert np.array_equal(
        dec_evaluate_grid(loaded, times).values,
        dec_evaluate_grid(series, times).values,
    )


def test_sidecar_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.decs"
    path.write_bytes(b"NOTME\n{}\n")
    with pytest.raises(ValueError, match="magic"):
        load_series(path)


def test_grid_path_matches_pointwise_evaluation(rng):
    # dec_evaluate_grid sums the series through its line list, dec_evaluate
    # through the Bessel recurrence; they must agree to roundoff, also on a
    # 5-spin series of about 1800 orders with six observables
    spec = random_spin_spec(3, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    small = dec_precompute(l_op, initial_state(3), {"ip": observable_by_name("ip", 3)}, tau=60.0)
    system = assemble(benchmark_spec(5), ("ip",) + tuple(f"ip:{k}" for k in range(5)))
    large = dec_precompute(system.l_op, system.rho0, system.observables, tau=200.0,
                           scaling=system.spectral_interval())
    cases = [(small, np.concatenate([[0.0], rng.uniform(0.0, 60.0, 40), [60.0]]), 1),
             (large, np.linspace(0.0, 200.0, 2001), 40),
             (large, rng.uniform(0.0, 200.0, 50), 1)]
    for series, times, stride in cases:
        grid = dec_evaluate_grid(series, times).values[:, ::stride]
        pointwise = np.array([dec_evaluate(series, t) for t in times[::stride]]).T
        scale = np.max(np.abs(pointwise))
        assert np.max(np.abs(grid - pointwise)) <= 1e-12 * scale


def test_progression_grids_take_the_factored_phase_table(rng):
    for dt in (1e-4, 0.1, 1.0 / 3.0, 0.7):
        for steps in (1, 2, 199, 2000):
            assert dec_module._progression_step(dt * np.arange(steps + 1)) is not None
    for t_end, n in ((200.0, 2001), (137.3, 1001), (1.0, 3)):
        grid = np.linspace(0.0, t_end, n)
        assert dec_module._progression_step(grid) is not None
        assert dec_module._progression_step(grid[n // 2 :]) is not None
        off = grid.copy()
        off[n // 2] += 0.25 * (grid[1] - grid[0])
        assert dec_module._progression_step(off) is None

    # the two phase-table routes agree on the points they share
    spec = random_spin_spec(3, rng)
    system = assemble(spec, ("ip", "iz"))
    series = dec_precompute(system.l_op, system.rho0, system.observables, tau=60.0,
                            scaling=system.spectral_interval())
    grid = 0.1 * np.arange(601)
    extra = np.append(grid, 12.345)
    assert dec_module._progression_step(np.unique(extra)) is None
    factored = dec_evaluate_grid(series, grid).values
    direct = dec_evaluate_grid(series, extra).values[:, :-1]
    assert np.max(np.abs(factored - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_a_long_line_list_is_summed_block_by_block(rng):
    # two and a half blocks of lines, on a progression and on scattered times
    n_lines = 2 * dec_module._LINE_BLOCK + dec_module._LINE_BLOCK // 2
    omega = rng.uniform(-3.0, 3.0, n_lines)
    amp = rng.standard_normal((2, n_lines)) + 1j * rng.standard_normal((2, n_lines))
    for times in (0.1 * np.arange(101), rng.uniform(-5.0, 20.0, 40)):
        direct = amp @ np.exp(-1j * np.outer(omega, times))
        summed = dec_module._phase_sum(omega, amp, times)
        assert np.max(np.abs(summed - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("budget_rows", [0, 1, 2, 3, 7])
def test_progression_products_taken_a_few_rows_of_amp_at_a_time(rng, monkeypatch, budget_rows):
    # seven rows of amp in groups of one (budget 0 too), two, three and all seven
    omega = rng.uniform(-3.0, 3.0, 300)
    amp = rng.standard_normal((7, 300)) + 1j * rng.standard_normal((7, 300))
    times = 0.05 + 0.1 * np.arange(401)
    whole = dec_module._phase_sum(omega, amp, times)
    coarse_bytes = 20 * 300 * 16  # 401 times: 20 coarse rows of 21 fine steps
    monkeypatch.setattr(dec_module, "_PRODUCT_BYTES", budget_rows * coarse_bytes)
    parts = dec_module._phase_sum(omega, amp, times)
    direct = amp @ np.exp(-1j * np.outer(omega, times))
    assert np.max(np.abs(parts - whole)) <= 1e-14 * np.max(np.abs(whole))
    assert np.max(np.abs(parts - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_grid_evaluation_is_order_independent(rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(l_op, initial_state(2), {"ip": observable_by_name("ip", 2)}, tau=20.0)
    times = np.linspace(0.0, 20.0, 33)
    forward = dec_evaluate_grid(series, times)
    backward = dec_evaluate_grid(series, times[::-1])
    assert np.array_equal(backward.values[0], forward.values[0][::-1])


def test_observables_must_be_a_mapping():
    q = SparseMatrix.from_dense(np.diag([1.0, -1.0]))
    with pytest.raises(TypeError, match="map"):
        dec_precompute(SparseMatrix.zeros(4), np.ones(4), [q], tau=1.0)


def test_too_narrow_interval_raises_instead_of_diverging():
    # half the estimated half-width leaves modes outside [-1, 1], where T_k
    # grows like cosh(k*acosh|x|); summed, the series is off by ~1e44
    l_op = build_liouvillian(build_hamiltonian(benchmark_spec(5)))
    est = extreme_eigs(l_op)
    narrow = ScalingParams.from_bounds(est.S + 0.5 * est.D, est.S - 0.5 * est.D)
    with pytest.raises(NumericalError, match="diverged"):
        dec_precompute(l_op, initial_state(5), {"ip": observable_by_name("ip", 5)}, tau=100.0,
                       scaling=narrow)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    form=st.sampled_from(["full", "ip", "ip ip:0"]),
    seed=st.integers(0, 999),
    eps=st.sampled_from([1e-4, 1e-7, 1e-10]),
    tau=st.floats(1.0, 200.0),
)
def test_trace_error_within_eps_times_norms(n, form, seed, eps, tau):
    # the full-space CSR with the Lanczos interval, or the path `simulate`
    # ships: the trace block's sector operator with its exact interval, on
    # the doubled (`ip`) or the plain (`ip ip:0`) sweep
    assume(form != "full" or n <= 4)
    spec = benchmark_spec(n, seed)
    if form == "full":
        l_op = build_liouvillian(build_hamiltonian(spec))
        swept, scaling, rho0 = l_op, None, initial_state(n)
        obs = {"ip": observable_by_name("ip", n), "iz": observable_by_name("iz", n)}
    else:
        system = assemble(spec, tuple(form.split()))
        l_op, swept, scaling = system.l_op, system.sector_op, system.spectral_interval()
        rho0, obs = system.rho0, system.observables
    times = np.linspace(0.0, tau, 201)
    series = dec_precompute(swept, rho0, obs, tau=tau, eps=eps, scaling=scaling)
    trace = dec_evaluate_grid(series, times)
    ref = oracle_expect(dense_eig(l_op), rho0, obs, times)
    _, w_rows = normalize_observables(obs, l_op.nrows)
    bound = eps * np.linalg.norm(w_rows, axis=1) * np.linalg.norm(rho0)
    assert np.all(np.max(np.abs(trace.values - ref.values), axis=1) <= bound)


@pytest.mark.parametrize("names", [("ip",), ("ip", "ip:0")])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_moments_are_those_of_the_exact_line_list(n, names):
    # the stored scalars are the Chebyshev moments of the exact lines,
    # mu_qk = sum_l amp_ql T_k((omega_l - S) / D), on the doubled sweep (`ip`)
    # and the plain one (`ip ip:0`)
    for seed in range(3):
        system = assemble(benchmark_spec(n, seed), names)
        series = dec_precompute(system.sector_op, system.rho0, system.observables, tau=100.0,
                                scaling=system.spectral_interval())
        omega, amp = system.line_list()
        x = (omega - series.shift) / series.half_width
        mu = np.empty_like(series.tilde)
        prev, cur = np.ones_like(x), x
        for k in range(series.n_orders):
            mu[:, k] = amp @ prev
            prev, cur = cur, 2.0 * x * cur - prev
        _, w_rows = normalize_observables(system.observables, system.block_dim)
        norms = np.linalg.norm(w_rows, axis=1) * np.linalg.norm(system.rho0)
        gap = np.max(np.abs(series.tilde - mu), axis=1)
        assert np.all(gap <= 1e-12 * norms), (seed, gap / norms)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 999),
    tau=st.floats(1.0, 150.0),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    data=st.data(),
)
def test_grid_contraction_properties(n, seed, tau, fractions, data):
    # multi-observable series; the grid holds t = 0, tau and duplicate times
    system = assemble(benchmark_spec(n, seed), ("ip", "iz", "ix:0"))
    series = dec_precompute(system.l_op, system.rho0, system.observables, tau=tau)
    times = np.array([0.0, tau] + [f * tau for f in fractions])
    times = np.concatenate([times, data.draw(st.lists(st.sampled_from(times), max_size=5))])
    values = dec_evaluate_grid(series, times).values

    perm = np.array(data.draw(st.permutations(range(times.shape[0]))))
    permuted = dec_evaluate_grid(series, times[perm]).values
    assert permuted.tobytes() == values[:, perm].tobytes()

    pointwise = np.array([dec_evaluate(series, t) for t in times]).T
    scale = np.max(np.abs(pointwise))
    assert np.max(np.abs(values - pointwise)) <= 1e-12 * scale

    assert np.array_equal(values[:, 0], series.tilde[:, 0])


def _reference_sweep(l_op, rho0, w_rows, scaling, n_orders):
    """The complex recurrence: complex CSR, complex states, one dot per order."""
    l_s = l_op.rescale(scaling)
    states = [np.asarray(rho0, dtype=np.complex128)]
    while len(states) < n_orders:
        product = spmv(l_s, states[-1])
        states.append(product if len(states) == 1 else 2.0 * product - states[-2])
    return np.array([[w @ state for state in states] for w in w_rows])


def _spy_sweep(monkeypatch, l_op, rho0, obs, tau, scaling):
    """``dec_precompute``, its matvec count, and the dtypes of the vectors it
    passes to ``spmv``."""
    dtypes = set()

    def spy(a, x):
        dtypes.add(np.asarray(x).dtype)
        return spmv(a, x)

    monkeypatch.setattr(chebyshev_module, "spmv", spy)
    before = matvec_counter.count
    series = dec_precompute(l_op, rho0, obs, tau=tau, scaling=scaling)
    return series, matvec_counter.count - before, dtypes


def _assert_real_sweep_matches_reference(monkeypatch, l_op, rho0, obs, tau, scaling):
    series, matvecs, dtypes = _spy_sweep(monkeypatch, l_op, rho0, obs, tau, scaling)
    assert dtypes == {np.dtype(np.float64)}  # every product is real, and counted
    assert matvecs == series.n_orders - 1
    _, w_rows = normalize_observables(obs, l_op.nrows)
    ref = _reference_sweep(l_op, rho0, w_rows, scaling, series.n_orders)
    norms = np.linalg.norm(w_rows, axis=1) * np.linalg.norm(rho0)
    assert np.all(np.max(np.abs(series.tilde - ref), axis=1) <= 1e-13 * norms)


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("start", ["imaginary", "real"])
def test_real_sweep_matches_the_complex_recurrence(monkeypatch, n, start):
    l_op = build_liouvillian(build_hamiltonian(benchmark_spec(n, 3)))
    rho0 = initial_state(n)
    if start == "real":
        rho0 = rho0.imag.astype(np.complex128)
    obs = {"ip": observable_by_name("ip", n), "iz": observable_by_name("iz", n)}
    _assert_real_sweep_matches_reference(monkeypatch, l_op, rho0, obs, 60.0,
                                         extreme_eigs(l_op))


def test_block_sweep_is_real_and_matches_the_complex_recurrence(monkeypatch):
    system = assemble(benchmark_spec(6), ("ip", "ix"))
    _assert_real_sweep_matches_reference(monkeypatch, system.l_op, system.rho0,
                                         system.observables, 80.0,
                                         system.spectral_interval())


@pytest.mark.parametrize("case", ["complex operator", "proportional form", "mixed start"])
def test_complex_sweep_is_unchanged(monkeypatch, rng, case):
    if case in ("complex operator", "proportional form"):
        l_op = SparseMatrix.from_dense(random_hermitian(12, rng))
        rho0 = rng.standard_normal(12) * 1j
    else:  # a real operator, but rho0 neither real nor imaginary
        l_op = build_liouvillian(build_hamiltonian(benchmark_spec(2)))
        rho0 = initial_state(2) + 0.25
    w = rng.standard_normal(l_op.nrows) + 1j * rng.standard_normal(l_op.nrows)
    if case == "proportional form":  # an autocorrelation, but L is complex
        w = -2j * rho0
    scaling = extreme_eigs(l_op)
    series, matvecs, dtypes = _spy_sweep(monkeypatch, l_op, rho0, {"w": w}, 20.0, scaling)
    assert dtypes == {np.dtype(np.complex128)}
    assert matvecs == series.n_orders - 1
    ref = _reference_sweep(l_op, rho0, np.array([w]), scaling, series.n_orders)
    assert np.array_equal(series.tilde, ref)


def _plain_real_reference(l_op, rho0, w_rows, scaling, n_orders):
    """The plain real sweep, one dot per observable per order: float64
    ``L_s`` and states, times the unit of a real or imaginary rho0."""
    rho0 = np.asarray(rho0, dtype=np.complex128)
    unit, y = (1j, rho0.imag) if np.any(rho0.imag) else (1, rho0.real)
    l_s = l_op.rescale(scaling, real=True)
    states = [np.ascontiguousarray(y)]
    while len(states) < n_orders:
        product = spmv(l_s, states[-1])
        states.append(product if len(states) == 1 else 2.0 * product - states[-2])
    tilde = np.array([[w @ state for state in states] for w in w_rows])
    return 1j * tilde if unit == 1j else tilde


def _one_ulp_off_ip():
    system = assemble(benchmark_spec(4), ("ip",))
    _, w_rows = normalize_observables(system.observables, system.l_op.nrows)
    w = w_rows[0].copy()
    w[7] = np.nextafter(w[7].real, np.inf)
    return system.l_op, system.rho0, {"w": w}, system.spectral_interval()


def _nonsymmetric_block():
    system = assemble(benchmark_spec(4), ("ip",))
    csr = system.l_op.csr.copy()
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    k = np.flatnonzero(csr.indices != rows)[0]
    csr.data[k] = np.nextafter(csr.data[k].real, np.inf)
    return SparseMatrix(csr), system.rho0, system.observables, system.spectral_interval()


def _criterion_5_full_space():
    l_op = build_liouvillian(build_hamiltonian(random_spin_spec(3, np.random.default_rng(5))))
    return l_op, initial_state(3), {"ip": observable_by_name("ip", 3)}, extreme_eigs(l_op)


def _ip_with_ip0():
    system = assemble(benchmark_spec(6), ("ip", "ip:0"))
    return system.l_op, system.rho0, system.observables, system.spectral_interval()


@pytest.mark.parametrize("case", [_one_ulp_off_ip, _nonsymmetric_block, _criterion_5_full_space,
                                  _ip_with_ip0])
def test_plain_sweep_unless_every_doubling_condition_holds(monkeypatch, case):
    l_op, rho0, obs, scaling = case()
    series, matvecs, dtypes = _spy_sweep(monkeypatch, l_op, rho0, obs, 40.0, scaling)
    assert dtypes == {np.dtype(np.float64)}
    assert matvecs == series.n_orders - 1
    _, w_rows = normalize_observables(obs, l_op.nrows)
    assert np.array_equal(series.tilde, _plain_real_reference(l_op, rho0, w_rows, scaling,
                                                              series.n_orders))


#: Horizons that store 1, 2 and 3 orders at half-width 1/4 and the default eps
#: (at the smallest double, tau * D underflows to 0).
_FEW_ORDERS = {5e-324: 1, 1e-9: 2, 1e-4: 3}

_NORMAL_PART = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 40),
    density=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
    beta=st.one_of(
        st.builds(lambda e, sign: sign * 2.0**e, st.integers(-30, 30),
                  st.sampled_from([1, -1, 1j, -1j])),
        st.builds(complex, _NORMAL_PART, _NORMAL_PART),
        st.just("uniform"),
    ),
    imaginary=st.booleans(),
    tau=st.one_of(st.sampled_from(sorted(_FEW_ORDERS)), st.floats(0.01, 150.0)),
)
@example(dim=5, density=0.5, seed=0, beta=-2.0, imaginary=True, tau=5e-324)
@example(dim=5, density=0.5, seed=1, beta=0.3 - 1.7j, imaginary=False, tau=1e-9)
@example(dim=5, density=0.5, seed=2, beta=4.0, imaginary=True, tau=1e-4)
def test_doubled_sweep_matches_the_complex_recurrence(dim, density, seed, beta, imaginary,
                                                      tau):
    # a random real symmetric sparse operator with spectrum in [-1/4, 1/4], so
    # that the interval [-1/4, 1/4] rescales it into [-1, 1]
    rng = np.random.default_rng(seed)
    mask = rng.random((dim, dim)) < density
    a = np.where(mask | mask.T, random_hermitian(dim, rng).real, 0.0)
    np.fill_diagonal(a, rng.standard_normal(dim))
    a *= 0.25 / np.max(np.abs(np.linalg.eigvalsh(a)))
    l_op = SparseMatrix.from_dense(a)
    scaling = ScalingParams.from_bounds(0.25, -0.25)
    y = rng.standard_normal(dim)
    rho0 = 1j * y if imaginary else y.astype(np.complex128)
    if beta == "uniform":  # full mantissas, which hypothesis seldom draws
        beta = complex(*rng.uniform(-1e3, 1e3, 2))
    w = beta * y

    before = matvec_counter.count
    series = dec_precompute(l_op, rho0, {"w": w}, tau=tau, scaling=scaling)
    assert matvec_counter.count - before == -(-(series.n_orders - 1) // 2)
    if tau in _FEW_ORDERS:
        assert series.n_orders == _FEW_ORDERS[tau]
    ref = _reference_sweep(l_op, rho0, np.array([w]), scaling, series.n_orders)
    bound = 1e-13 * np.linalg.norm(w) * np.linalg.norm(rho0)
    assert np.max(np.abs(series.tilde - ref)) <= bound


def test_doubled_sweep_recovers_a_factor_the_quotient_misses():
    # (beta * y_0) / y_0 rounds one ulp away from beta here, so the factor is
    # found among the quotient's neighbours
    beta, y = -932.8288493890713, np.array([1.4482932618839026, -0.25, 0.5, 1.0])
    assert (beta * y[0]) / y[0] != beta
    l_op = SparseMatrix.from_dense(np.diag([0.5, -0.5, 0.25, 0.0]) + 0.125 * np.eye(4, k=1)
                                   + 0.125 * np.eye(4, k=-1))
    before = matvec_counter.count
    series = dec_precompute(l_op, -0.5j * y, {"w": beta * y}, tau=20.0,
                            scaling=ScalingParams.from_bounds(1.0, -1.0))
    assert matvec_counter.count - before == series.n_orders // 2


def test_too_narrow_interval_raises_on_the_doubled_sweep_too():
    system = assemble(benchmark_spec(5), ("ip",))
    exact = system.spectral_interval()
    narrow = ScalingParams.from_bounds(exact.S + 0.5 * exact.D, exact.S - 0.5 * exact.D)
    before = matvec_counter.count
    with pytest.raises(NumericalError, match="diverged"):
        dec_precompute(system.l_op, system.rho0, system.observables, tau=100.0,
                       scaling=narrow)
    # the doubled sweep ran, and the guard still read its result
    assert matvec_counter.count - before == stop_order(100.0 * narrow.D, DEFAULT_EPS) // 2


def test_doubled_and_plain_sweeps_agree_on_the_block():
    # `ip` alone sweeps doubled; with `ip:0` beside it the same block sweeps plain
    def sweep(observables):
        system = assemble(benchmark_spec(6), observables)
        before = matvec_counter.count
        series = dec_precompute(system.l_op, system.rho0, system.observables, tau=100.0,
                                scaling=system.spectral_interval())
        return series, matvec_counter.count - before, system

    doubled, doubled_matvecs, system = sweep(("ip",))
    plain, plain_matvecs, _ = sweep(("ip", "ip:0"))
    assert doubled.n_orders == plain.n_orders
    assert (doubled_matvecs, plain_matvecs) == (doubled.n_orders // 2, plain.n_orders - 1)
    _, w_rows = normalize_observables(system.observables, system.l_op.nrows)
    bound = 1e-13 * np.linalg.norm(w_rows[0]) * np.linalg.norm(system.rho0)
    assert np.max(np.abs(doubled.tilde[0] - plain.tilde[0])) <= bound


def _split_chain(n):
    """``benchmark_spec(n)`` with the couplings between its two halves removed:
    many sectors, and blocks of many shapes."""
    spec = benchmark_spec(n)
    j = spec.j_coupling.copy()
    j[: n // 2, n // 2 :] = j[n // 2 :, : n // 2] = 0.0
    return SpinSystemSpec(n=n, omega0=spec.omega0, j_coupling=j)


@pytest.mark.parametrize(("names", "doubled"), [(("ip",), True), (("ip", "iz"), True),
                                                (("ip", "ip:0"), False), (("ix",), False)])
@pytest.mark.parametrize("spec", [benchmark_spec(6), _split_chain(6)], ids=["chain", "split"])
def test_sector_sweep_matches_the_csr_sweep(spec, names, doubled):
    # with the same interval the sector operator and the block CSR store the
    # same orders at the same matvec count, and agree to roundoff
    system = assemble(spec, names)
    scaling = system.spectral_interval()

    def sweep(l_op):
        before = matvec_counter.count
        series = dec_precompute(l_op, system.rho0, system.observables, tau=100.0,
                                scaling=scaling)
        return series, matvec_counter.count - before

    sectors, sector_matvecs = sweep(system.sector_op)
    csr, csr_matvecs = sweep(system.l_op)
    assert sectors.n_orders == csr.n_orders
    assert sector_matvecs == csr_matvecs == (csr.n_orders // 2 if doubled
                                             else csr.n_orders - 1)
    times = np.linspace(0.0, 100.0, 1001)
    f, g = dec_evaluate_grid(sectors, times).values, dec_evaluate_grid(csr, times).values
    assert np.all(np.max(np.abs(f - g), axis=1) <= 1e-13 * np.max(np.abs(g), axis=1))


@pytest.mark.parametrize("names", [("ip",), ("ip", "ip:0")])
def test_too_narrow_interval_raises_on_the_sector_operator(names):
    system = assemble(benchmark_spec(5), names)
    exact = system.spectral_interval()
    narrow = ScalingParams.from_bounds(exact.S + 0.5 * exact.D, exact.S - 0.5 * exact.D)
    with pytest.raises(NumericalError, match="diverged"):
        dec_precompute(system.sector_op, system.rho0, system.observables, tau=100.0,
                       scaling=narrow)
