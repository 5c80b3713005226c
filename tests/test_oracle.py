import numpy as np
import pytest

from qexpect import (
    ResourceError,
    SparseMatrix,
    SpinSystemSpec,
    build_hamiltonian,
    build_liouvillian,
    dense_eig,
    initial_state,
    mode_amplitudes,
    observable_by_name,
    oracle_expect,
    trace_form,
)

from conftest import random_hermitian, random_spin_spec


def test_diagonal_input_sorted():
    dec = dense_eig(SparseMatrix.from_dense(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(dec.lam, [1.0, 2.0, 3.0])


def test_single_spin_liouvillian_modes():
    w = 1.3
    spec = SpinSystemSpec(n=1, omega0=[w], j_coupling=np.zeros((1, 1)))
    dec = dense_eig(build_liouvillian(build_hamiltonian(spec)))
    assert np.allclose(dec.lam, [-w, 0.0, 0.0, w], atol=1e-13)


def test_eigenvector_unitarity_and_residual(rng):
    l_dense = random_hermitian(32, rng, scale=2.0)
    l_op = SparseMatrix.from_dense(l_dense)
    dec = dense_eig(l_op)
    assert np.max(np.abs(dec.X.conj().T @ dec.X - np.eye(32))) <= 1e-12
    resid = l_dense @ dec.X - dec.X @ np.diag(dec.lam)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(l_dense)


def test_expectation_at_zero_is_trace(rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(2)
    q = observable_by_name("ip", 2)
    trace = oracle_expect(dense_eig(l_op), rho0, {"ip": q}, np.array([0.0]))
    assert trace.values[0, 0] == pytest.approx(trace_form(q) @ rho0, abs=1e-12)


def test_single_spin_analytic_exact():
    w = 2.2
    spec = SpinSystemSpec(n=1, omega0=[w], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    times = np.linspace(0.0, 20.0, 101)
    trace = oracle_expect(dense_eig(l_op), initial_state(1),
                          {"ip": observable_by_name("ip", 1)}, times)
    analytic = -0.5j * np.exp(-1j * w * times)
    assert np.max(np.abs(trace.values[0] - analytic)) <= 1e-13


def test_time_reversal_symmetry(rng):
    # Hermitian rho0 and Hermitian observable: f(-t) = conj(f(t))
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    dec = dense_eig(l_op)
    rho0 = initial_state(2)
    obs = {"iz": observable_by_name("iz", 2)}
    times = np.linspace(0.1, 5.0, 17)
    fwd = oracle_expect(dec, rho0, obs, times)
    # negative times: evaluate by conjugating the phase sum directly
    bwd = np.array([
        (trace_form(observable_by_name("iz", 2)) @ (
            dec.X @ (np.exp(1j * dec.lam * t) * (dec.X.conj().T @ rho0))
        ))
        for t in times
    ])
    assert np.max(np.abs(bwd - np.conj(fwd.values[0]))) <= 1e-11


def test_parseval_amplitudes(rng):
    spec = random_spin_spec(2, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(2)
    mu = mode_amplitudes(dense_eig(l_op), rho0)
    assert np.sum(np.abs(mu) ** 2) == pytest.approx(np.linalg.norm(rho0) ** 2)


def test_dimension_cap_points_to_sparse_engines():
    big = SparseMatrix.identity(8192)
    with pytest.raises(ResourceError, match="sparse engine"):
        dense_eig(big)


def test_phase_sum_on_any_grid_matches_the_direct_sum(rng):
    # the shared evaluator sorts, merges repeats and scatters back; on a
    # progression it also factors the phase table
    spec = random_spin_spec(3, rng)
    dec = dense_eig(build_liouvillian(build_hamiltonian(spec)))
    rho0 = initial_state(3)
    obs = {"ip": observable_by_name("ip", 3), "iz": observable_by_name("iz", 3)}
    w_rows = np.vstack([trace_form(q) for q in obs.values()])
    amp = (w_rows @ dec.X) * mode_amplitudes(dec, rho0)
    base = rng.uniform(0.0, 30.0, 40)
    scrambled = np.concatenate([base, base[:7], [0.0, 0.0, -3.5]])
    for times in (scrambled[rng.permutation(scrambled.size)], 0.1 * np.arange(301)):
        values = oracle_expect(dec, rho0, obs, times).values
        direct = amp @ np.exp(-1j * np.outer(dec.lam, times))
        assert np.max(np.abs(values - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_non_hermitian_operator_is_refused():
    # eigh reads one triangle only: on this operator it would return f(1) = 0
    # for rho0 = (0, 1) and a form that reads coordinate 0, where
    # expm(-1j * A) gives -0.956 - 0.068i
    a = np.array([[1.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        dense_eig(SparseMatrix.from_dense(a))
    # a roundoff-level asymmetry is still solved
    a[1, 0] = 1.0 + 1e-15
    assert np.allclose(dense_eig(SparseMatrix.from_dense(a)).lam, [1.5 - 0.5 * 5**0.5,
                                                                   1.5 + 0.5 * 5**0.5])
