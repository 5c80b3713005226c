import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpect import (
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
    observable_ip,
    oracle_expect,
    rescale,
    save_series,
    spmv,
    trace_form,
)
import qexpect.dec as dec_module
from qexpect.cli import benchmark_spec

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
    series = dec_precompute(l_op, initial_state(1), {"ip": observable_ip(1)},
                            tau=tau, eps=eps)
    times = np.linspace(0.0, tau, 501)
    trace = dec_evaluate_grid(series, times)
    analytic = -0.5j * np.exp(-1j * omega * times)
    assert np.max(np.abs(trace.values[0] - analytic)) <= 10 * eps


def test_evaluate_at_zero_is_exact_trace():
    spec = SpinSystemSpec(n=2, omega0=[1.0, 2.0], j_coupling=np.zeros((2, 2)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(2)
    q = observable_ip(2)
    series = dec_precompute(l_op, rho0, {"ip": q}, tau=5.0)
    assert dec_evaluate(series, 0.0)[0] == pytest.approx(trace_form(q) @ rho0, abs=1e-13)


def test_single_spin_half_period():
    omega = 1.0
    spec = SpinSystemSpec(n=1, omega0=[omega], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(l_op, initial_state(1), {"ip": observable_ip(1)}, tau=4.0)
    val = dec_evaluate(series, np.pi / omega)[0]
    assert val == pytest.approx(0.5j, abs=1e-7)


def test_multi_observable_matches_single_runs(rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(2)
    obs_p, obs_z = observable_ip(2), observable_by_name("iz", 2)
    both = dec_precompute(l_op, rho0, {"ip": obs_p, "iz": obs_z}, tau=10.0)
    only_p = dec_precompute(l_op, rho0, {"ip": obs_p}, tau=10.0)
    only_z = dec_precompute(l_op, rho0, {"iz": obs_z}, tau=10.0)
    assert np.array_equal(both.tilde[0], only_p.tilde[0])
    assert np.array_equal(both.tilde[1], only_z.tilde[0])


def test_matches_oracle_on_random_system(rng):
    spec = random_spin_spec(3, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(3)
    obs = {"ip": observable_ip(3)}
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
    series = dec_precompute(l_op, initial_state(2), {"ip": observable_ip(2)},
                            tau=20.0, scaling=scaling)
    assert matvec_counter.count == series.n_orders - 1


def test_grid_evaluation_needs_no_matvecs(rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(l_op, initial_state(2), {"ip": observable_ip(2)}, tau=100.0)
    matvec_counter.reset()
    trace = dec_evaluate_grid(series, 0.1 * np.arange(1000))
    assert matvec_counter.count == 0
    assert trace.metadata["matvecs"] == 0


def test_prefix_equals_shorter_horizon(rng):
    spec = random_spin_spec(3, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(3)
    obs = {"ip": observable_ip(3)}
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
    series = dec_precompute(l_op, initial_state(1), {"ip": observable_ip(1)}, tau=10.0)
    with pytest.raises(ValueError, match="horizon"):
        dec_evaluate(series, 10.5)
    # endpoint rounding is clamped, not rejected
    val = dec_evaluate(series, 10.0 * (1.0 + 1e-13))
    assert val[0] == pytest.approx(dec_evaluate(series, 10.0)[0], abs=1e-9)


def test_grid_error_names_offending_index():
    spec = SpinSystemSpec(n=1, omega0=[1.0], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(l_op, initial_state(1), {"ip": observable_ip(1)}, tau=1.0)
    with pytest.raises(ValueError, match="grid point 2"):
        dec_evaluate_grid(series, [0.0, 0.5, 1.5])


def test_precompute_rejects_bad_tau():
    l_op = SparseMatrix.identity(4)
    with pytest.raises(ValueError, match="tau"):
        dec_precompute(l_op, np.ones(4), {"w": np.ones(4)}, tau=0.0)


def test_sidecar_roundtrip(tmp_path, rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(
        l_op, initial_state(2),
        {"ip": observable_ip(2), "iz": observable_by_name("iz", 2)}, tau=25.0,
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
    # dec_evaluate_grid uses one vectorised coefficient sweep; it must agree
    # with the per-point reference path to roundoff
    spec = random_spin_spec(3, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(3)
    series = dec_precompute(l_op, rho0, {"ip": observable_ip(3)}, tau=60.0)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 60.0, 40)), [60.0]])
    times = np.unique(times)
    grid = dec_evaluate_grid(series, times)
    pointwise = np.array([dec_evaluate(series, t)[0] for t in times])
    scale = np.max(np.abs(pointwise))
    assert np.max(np.abs(grid.values[0] - pointwise)) <= 1e-12 * scale


def test_grid_evaluation_is_order_independent(rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    series = dec_precompute(l_op, initial_state(2), {"ip": observable_ip(2)}, tau=20.0)
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
        dec_precompute(l_op, initial_state(5), {"ip": observable_ip(5)}, tau=100.0,
                       scaling=narrow)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 999),
    eps=st.sampled_from([1e-4, 1e-7, 1e-10]),
    tau=st.floats(1.0, 200.0),
)
def test_trace_error_within_eps_times_norms(n, seed, eps, tau):
    spec = benchmark_spec(n, seed)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(n)
    obs = {"ip": observable_ip(n), "iz": observable_by_name("iz", n)}
    times = np.linspace(0.0, tau, 201)
    trace = dec_evaluate_grid(dec_precompute(l_op, rho0, obs, tau=tau, eps=eps), times)
    ref = oracle_expect(dense_eig(l_op), rho0, obs, times)
    for q, label in enumerate(trace.labels):
        bound = eps * np.linalg.norm(trace_form(obs[label])) * np.linalg.norm(rho0)
        assert np.max(np.abs(trace.values[q] - ref.values[q])) <= bound


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
    l_s = rescale(l_op, scaling)
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

    monkeypatch.setattr(dec_module, "spmv", spy)
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
    obs = {"ip": observable_ip(n), "iz": observable_by_name("iz", n)}
    _assert_real_sweep_matches_reference(monkeypatch, l_op, rho0, obs, 60.0,
                                         extreme_eigs(l_op))


def test_block_sweep_is_real_and_matches_the_complex_recurrence(monkeypatch):
    system = assemble(benchmark_spec(6), ("ip", "ix"))
    _assert_real_sweep_matches_reference(monkeypatch, system.l_op, system.rho0,
                                         system.observables, 80.0,
                                         system.spectral_interval())


@pytest.mark.parametrize("case", ["complex operator", "mixed start"])
def test_complex_sweep_is_unchanged(monkeypatch, rng, case):
    if case == "complex operator":
        l_op = SparseMatrix.from_dense(random_hermitian(12, rng))
        rho0 = rng.standard_normal(12) * 1j
    else:  # a real operator, but rho0 neither real nor imaginary
        l_op = build_liouvillian(build_hamiltonian(benchmark_spec(2)))
        rho0 = initial_state(2) + 0.25
    w = rng.standard_normal(l_op.nrows) + 1j * rng.standard_normal(l_op.nrows)
    scaling = extreme_eigs(l_op)
    series, matvecs, dtypes = _spy_sweep(monkeypatch, l_op, rho0, {"w": w}, 20.0, scaling)
    assert dtypes == {np.dtype(np.complex128)}
    assert matvecs == series.n_orders - 1
    ref = _reference_sweep(l_op, rho0, np.array([w]), scaling, series.n_orders)
    assert np.array_equal(series.tilde, ref)
