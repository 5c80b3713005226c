import numpy as np
import pytest

from qexpect import (
    NumericalError,
    ResourceError,
    SparseMatrix,
    SpinSystemSpec,
    assemble,
    build_hamiltonian,
    build_liouvillian,
    counterexample_f,
    initial_state,
    krylov_propagate,
    matvec_counter,
    observable_by_name,
    resonant_triplet,
    spmv,
    zte_detect,
    zte_propagate,
    zte_window,
)
from qexpect.cli import benchmark_spec


def _spec(omega, j=None):
    omega = np.asarray(omega, dtype=float)
    n = omega.shape[0]
    return SpinSystemSpec(n=n, omega0=omega,
                          j_coupling=np.zeros((n, n)) if j is None else j)


def test_window_unit_frequency():
    assert zte_window(_spec([2.0 * np.pi])) == pytest.approx(1.0)


def test_window_takes_slowest_spin():
    spec = _spec([2.0 * np.pi * 100.0, 2.0 * np.pi * 400.0])
    assert zte_window(spec) == pytest.approx(1.0 / 100.0)


def test_window_ignores_zero_frequencies():
    assert zte_window(_spec([0.0, 2.0 * np.pi])) == pytest.approx(1.0)


def test_window_undefined_for_all_zero():
    with pytest.raises(NumericalError, match="window"):
        zte_window(_spec([0.0, 0.0]))


def test_detect_on_diagonal_operator():
    l_op = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
    rho0 = np.array([1.0, 0.0, 0.5, 0.0], dtype=complex)
    red = zte_detect(l_op, rho0, dt=0.1, delta_t=1.0, observables={"w": np.ones(4)}, xi=1e-6)
    assert np.array_equal(red.kept, [0, 2])
    assert np.allclose(red.l_reduced.to_dense(), np.diag([1.0, 3.0]))


def test_detect_zero_threshold_keeps_everything():
    spec = _spec([1.0])
    l_op = build_liouvillian(build_hamiltonian(spec))
    red = zte_detect(l_op, initial_state(1), dt=0.5, delta_t=2.0 * np.pi,
                     observables={"ip": observable_by_name("ip", 1)}, xi=0.0)
    assert red.reduced_dim == 4


def test_detect_rejects_overlong_dt():
    l_op = SparseMatrix.identity(4)
    with pytest.raises(ValueError, match="delta_t"):
        zte_detect(l_op, np.ones(4), dt=2.0, delta_t=1.0, observables={"w": np.ones(4)})


@pytest.mark.parametrize("dt", [5e-324, 1e-300])
def test_detect_rejects_a_window_too_long_to_count(dt):
    # delta_t / dt is inf at 5e-324 and about 1e300 at 1e-300: both raise
    # before the first step instead of overflowing or stepping for ever
    l_op = SparseMatrix.identity(4)
    before = matvec_counter.count
    with pytest.raises(ResourceError, match="count"):
        zte_detect(l_op, np.ones(4), dt=dt, delta_t=1.0, observables={"w": np.ones(4)})
    assert matvec_counter.count == before


def test_detect_empty_keep_set_errors():
    spec = _spec([1.0])
    l_op = build_liouvillian(build_hamiltonian(spec))
    with pytest.raises(NumericalError, match="pruned every"):
        zte_detect(l_op, initial_state(1), dt=0.5, delta_t=6.0,
                   observables={"ip": observable_by_name("ip", 1)}, xi=1e3)


def test_full_keep_matches_full_engine():
    spec = _spec([1.0, 1.7], j=np.array([[0.0, 0.2], [0.2, 0.0]]))
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(2)
    obs = {"ip": observable_by_name("ip", 2)}
    red = zte_detect(l_op, rho0, dt=0.2, delta_t=2.0 * np.pi, observables=obs, xi=0.0)
    assert red.reduced_dim == 16
    reduced = zte_propagate(red, 0.2, 100)
    full = krylov_propagate(l_op, rho0, 0.2, 100, obs)
    assert reduced.values.tobytes() == full.values.tobytes()


def test_weakly_coupled_reduction_and_accuracy():
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 0.05
    j[1, 2] = j[2, 1] = 0.02
    spec = _spec([1.0, 1.4, 2.1], j=j)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(3)
    obs = {"ip": observable_by_name("ip", 3)}
    delta_t = zte_window(spec)
    red = zte_detect(l_op, rho0, dt=0.1, delta_t=delta_t, observables=obs, xi=1e-6)
    assert red.reduced_dim < 64
    steps = int(np.ceil(10.0 * delta_t / 0.1))
    reduced = zte_propagate(red, 0.1, steps)
    full = krylov_propagate(l_op, rho0, 0.1, steps, obs)
    assert np.max(np.abs(reduced.values[0] - full.values[0])) <= 1e-3
    assert reduced.metadata["reduced_dim"] == red.reduced_dim
    assert any("no error guarantee" in w for w in reduced.metadata["warnings"])


def test_exact_zero_pruning_is_lossless_diagonal(rng):
    # coordinates with <l|L^k rho0> = 0 for all k stay zero forever
    dim = 64
    diag = rng.standard_normal(dim)
    l_op = SparseMatrix.from_dense(np.diag(diag))
    rho0 = np.zeros(dim, dtype=complex)
    support = rng.choice(dim, size=20, replace=False)
    rho0[support] = rng.standard_normal(20) + 1j * rng.standard_normal(20)

    probe = rho0.copy()
    dead = np.ones(dim, dtype=bool)
    for _ in range(dim + 1):
        dead &= probe == 0.0
        probe = spmv(l_op, probe)
    assert not np.any(dead[support])

    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    red = zte_detect(l_op, rho0, dt=0.25, delta_t=2.0, observables={"w": w}, xi=1e-12)
    assert np.all(dead[np.setdiff1d(np.arange(dim), red.kept)])

    reduced = zte_propagate(red, 0.25, 40)
    full = krylov_propagate(l_op, rho0, 0.25, 40, {"w": w})
    assert np.max(np.abs(reduced.values - full.values)) <= 1e-12


def test_exact_zero_pruning_is_lossless_block_diagonal(rng):
    from conftest import random_hermitian

    b1 = random_hermitian(24, rng)
    b2 = random_hermitian(40, rng)
    l_dense = np.zeros((64, 64), dtype=complex)
    l_dense[:24, :24] = b1
    l_dense[24:, 24:] = b2
    l_op = SparseMatrix.from_dense(l_dense)
    rho0 = np.zeros(64, dtype=complex)
    rho0[:24] = rng.standard_normal(24) + 1j * rng.standard_normal(24)

    w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    red = zte_detect(l_op, rho0, dt=0.2, delta_t=2.0, observables={"w": w}, xi=1e-12)
    assert np.all(red.kept < 24)
    reduced = zte_propagate(red, 0.2, 30)
    full = krylov_propagate(l_op, rho0, 0.2, 30, {"w": w})
    assert np.max(np.abs(reduced.values - full.values)) <= 1e-12


def test_counterexample_values():
    assert counterexample_f(0.0) == pytest.approx(0.0)
    early = np.abs(counterexample_f(np.linspace(0.0, 1.0, 2001)))
    assert early.max() <= 5e-5
    assert early.max() == pytest.approx(2e-5, rel=0.15)
    late = np.abs(counterexample_f(np.linspace(0.0, 1000.0, 200001)))
    assert late.max() > 1.9
    assert abs(np.linspace(0.0, 1000.0, 200001)[late.argmax()] - 500.0) < 50.0


def test_resonant_triplet_realises_counterexample():
    l_op, rho0, w = resonant_triplet()
    l_dense = l_op.to_dense()
    assert np.allclose(l_dense, l_dense.conj().T)
    lam, x = np.linalg.eigh(l_dense)
    assert np.allclose(np.sort(lam), 2.0 * np.pi * np.array([0.999, 1.0, 1.001]))
    for t in (0.0, 0.3, 2.0, 437.1):
        import scipy.linalg

        state = scipy.linalg.expm(-1j * l_dense * t) @ rho0
        assert w @ state == pytest.approx(counterexample_f(t), abs=1e-9)


def test_pruning_failure_mode_reproduced():
    l_op, rho0, w = resonant_triplet()
    # window = one period of the slow isolated 1 Hz line
    red = zte_detect(l_op, rho0, dt=0.1, delta_t=1.0, observables={"f": w}, xi=1e-4)
    assert 0 not in red.kept  # the resonant coordinate was pruned
    assert red.reduced_dim == 2

    dt = 0.5
    steps = 1000  # reach t = 500 where the beat peaks
    reduced = zte_propagate(red, dt, steps)
    times = reduced.times
    truth = counterexample_f(times)
    err = np.abs(reduced.values[0] - truth)
    assert err.max() > 0.5  # long-time failure, exactly as predicted


@pytest.fixture(scope="module")
def spin5_window():
    """The ``ip`` trace block of ``benchmark_spec(5)`` and a window that keeps all of it."""
    spec = benchmark_spec(5)
    system = assemble(spec, ("ip",))
    red = zte_detect(system.l_op, system.rho0, 0.1, zte_window(spec), system.observables)
    assert red.reduced_dim == red.full_dim
    return system, red


_COST_FREE_KEYS = ("m_used_max", "m_used_mean", "eps")


@pytest.mark.parametrize("offset", [-37, -1, 0, 1, 45])
def test_kept_window_is_the_start_of_the_run(spin5_window, offset):
    system, red = spin5_window
    steps = red.window_steps + offset
    zte = zte_propagate(red, 0.1, steps)
    krylov = krylov_propagate(system.l_op, system.rho0, 0.1, steps, system.observables)
    assert zte.values.tobytes() == krylov.values.tobytes()
    assert zte.times.tobytes() == krylov.times.tobytes()
    for key in _COST_FREE_KEYS:
        assert zte.metadata[key] == krylov.metadata[key]
    # the window is paid for once, and the trace still counts it
    expected = krylov.metadata["matvecs"] if offset >= 0 else red.window_matvecs
    assert zte.metadata["matvecs"] == expected


def test_reused_window_cannot_alter_its_record(spin5_window):
    system, red = spin5_window
    first = zte_propagate(red, 0.1, 20)
    first.values[:] = 0.0
    again = zte_propagate(red, 0.1, 20)
    krylov = krylov_propagate(system.l_op, system.rho0, 0.1, 20, system.observables)
    assert again.values.tobytes() == krylov.values.tobytes()


@pytest.mark.parametrize("change", ["dt", "xi"])
def test_other_runs_restart_from_rho0(spin5_window, change):
    # a dt other than the window's, or a pruned coordinate, restarts from
    # rho0 in the reduced space: the trace is krylov's on the kept block
    system, red = spin5_window
    dt = 0.2 if change == "dt" else 0.1
    if change == "xi":
        red = zte_detect(system.l_op, system.rho0, 0.1, red.delta_t, system.observables, xi=1e-2)
        assert 0 < red.reduced_dim < red.full_dim
    (label, form), = system.observables.items()
    zte = zte_propagate(red, dt, 60)
    krylov = krylov_propagate(red.l_reduced, system.rho0[red.kept], dt, 60,
                              {label: form[red.kept]})
    assert zte.values.tobytes() == krylov.values.tobytes()
    assert zte.metadata["matvecs"] == krylov.metadata["matvecs"] + red.window_matvecs


def test_reduction_owns_its_initial_state_and_forms(spin5_window):
    system, red = spin5_window
    (label, form), = system.observables.items()
    rho0, caller_form = system.rho0.copy(), form.copy()
    owned = zte_detect(system.l_op, rho0, 0.1, red.delta_t, {label: caller_form})
    rho0[:], caller_form[:] = 1.0, 0.0  # the caller reuses its arrays
    for dt in (0.1, 0.2):  # the continued window, then a restart from rho0
        zte = zte_propagate(owned, dt, 30)
        krylov = krylov_propagate(system.l_op, system.rho0, dt, 30, system.observables)
        assert zte.values.tobytes() == krylov.values.tobytes()


@pytest.mark.parametrize("steps", [10, 200])
def test_unconverged_window_steps_warn_as_krylov_does(steps, monkeypatch):
    monkeypatch.setattr("qexpect.krylov.M_MAX", 3)
    spec = benchmark_spec(5)
    system = assemble(spec, ("ip",))
    red = zte_detect(system.l_op, system.rho0, 0.1, zte_window(spec), system.observables)
    zte = zte_propagate(red, 0.1, steps)
    krylov = krylov_propagate(system.l_op, system.rho0, 0.1, steps, system.observables)
    assert krylov.metadata["warnings"][0].startswith(f"{steps} of {steps} steps hit m_max=3")
    assert zte.metadata["warnings"][:-1] == krylov.metadata["warnings"]
    assert zte.values.tobytes() == krylov.values.tobytes()
