import numpy as np
import pytest
import scipy.linalg

from qexpect import (
    SparseMatrix,
    SpinSystemSpec,
    build_hamiltonian,
    build_liouvillian,
    dec_evaluate_grid,
    dec_precompute,
    initial_state,
    krylov_propagate,
    krylov_step,
    lanczos,
    observable_ip,
    spmv,
    tridiag_expv,
)

from conftest import random_hermitian, random_sparse_hermitian, random_spin_spec


def test_step_on_eigenvector_is_single_iteration():
    l_op = SparseMatrix.from_dense(np.diag([2.0, -1.0, 0.5]))
    rho = np.array([0.0, 3.0, 0.0], dtype=complex)
    result = krylov_step(l_op, rho, dt=0.4)
    assert result.m_used == 1
    assert result.converged
    assert np.allclose(result.state, np.exp(-1j * (-1.0) * 0.4) * rho, atol=1e-14)


def test_step_two_by_two_analytic():
    l_op = SparseMatrix.from_dense(np.diag([0.0, 1.0]))
    rho = np.array([1.0, 1.0]) / np.sqrt(2.0)
    dt, eps = 0.1, 1e-7
    result = krylov_step(l_op, rho, dt, eps=eps)
    exact = scipy.linalg.expm(-1j * dt * np.diag([0.0, 1.0])) @ rho
    assert np.linalg.norm(result.state - exact) <= eps


def test_step_rejects_zero_state():
    with pytest.raises(ValueError, match="nonzero"):
        krylov_step(SparseMatrix.identity(3), np.zeros(3), dt=0.1)


def test_step_m_max_warning_flag(rng):
    a = random_hermitian(32, rng, scale=8.0)
    l_op = SparseMatrix.from_dense(a)
    rho = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    result = krylov_step(l_op, rho, dt=2.0, eps=1e-12, m_max=3)
    assert result.m_used == 3
    assert not result.converged


def test_step_norm_preservation(rng):
    spec = random_spin_spec(3, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho = initial_state(3)
    eps = 1e-7
    for _ in range(20):
        before = np.linalg.norm(rho)
        rho = krylov_step(l_op, rho, 0.1, eps=eps).state
        assert abs(np.linalg.norm(rho) - before) <= 10 * eps


def test_step_iterations_monotone_in_eps(rng):
    spec = random_spin_spec(3, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho = initial_state(3)
    m_loose = krylov_step(l_op, rho, 0.1, eps=1e-4).m_used
    m_tight = krylov_step(l_op, rho, 0.1, eps=1e-10).m_used
    assert m_loose <= m_tight


@pytest.mark.parametrize("dim", [8, 24, 64])
def test_step_error_sound_against_dense(dim, rng):
    a = random_hermitian(dim, rng, scale=2.0)
    l_op = SparseMatrix.from_dense(a)
    eps = 1e-7
    u = scipy.linalg.expm(-1j * 0.25 * a)
    rho = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    rho /= np.linalg.norm(rho)
    for _ in range(10):
        stepped = krylov_step(l_op, rho, 0.25, eps=eps).state
        exact = u @ rho
        assert np.linalg.norm(stepped - exact) <= 50 * eps
        rho = exact / np.linalg.norm(exact)


def test_propagate_zero_steps():
    spec = SpinSystemSpec(n=1, omega0=[1.0], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    trace = krylov_propagate(l_op, initial_state(1), 0.1, 0, {"ip": observable_ip(1)})
    assert trace.n_times == 1
    assert trace.values[0, 0] == pytest.approx(-0.5j)


def test_propagate_single_spin_analytic():
    omega = 1.0
    spec = SpinSystemSpec(n=1, omega0=[omega], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    eps = 1e-7
    steps = 1000
    trace = krylov_propagate(l_op, initial_state(1), 0.1, steps,
                             {"ip": observable_ip(1)}, eps=eps)
    analytic = -0.5j * np.exp(-1j * omega * trace.times)
    assert np.max(np.abs(trace.values[0] - analytic)) <= steps * eps


def test_propagate_agrees_with_direct_series(rng):
    spec = random_spin_spec(3, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    rho0 = initial_state(3)
    obs = {"ip": observable_ip(3)}
    eps = 1e-7
    dt, steps = 0.1, 300
    krylov = krylov_propagate(l_op, rho0, dt, steps, obs, eps=eps)
    series = dec_precompute(l_op, rho0, obs, tau=dt * steps, eps=eps)
    direct = dec_evaluate_grid(series, krylov.times)
    assert np.max(np.abs(krylov.values[0] - direct.values[0])) <= 1e-5


def test_propagate_reports_unconverged_steps(rng):
    a = random_hermitian(16, rng, scale=10.0)
    l_op = SparseMatrix.from_dense(a)
    rho0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    w = np.zeros(16, dtype=complex)
    w[0] = 1.0
    trace = krylov_propagate(l_op, rho0, 1.0, 3, {"w": w}, eps=1e-12, m_max=4)
    assert trace.metadata["warnings"]
    assert "m_max" in trace.metadata["warnings"][0]


@pytest.mark.parametrize("dt", [0.1, 1.5])
def test_step_and_lanczos_build_identical_tridiagonals(rng, monkeypatch, dt):
    import qexpect.krylov

    seen = []

    def recording_expv(alpha, beta, t):
        seen.append((np.array(alpha), np.array(beta)))
        return tridiag_expv(alpha, beta, t)

    monkeypatch.setattr(qexpect.krylov, "tridiag_expv", recording_expv)
    l_op = random_sparse_hermitian(80, rng, density=0.3, scale=2.0)
    rho = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    result = krylov_step(l_op, rho, dt)
    alpha, beta = seen[-1]
    assert alpha.size == result.m_used
    fac = lanczos(l_op, rho, m_max=result.m_used)
    assert np.array_equal(fac.alpha, alpha)
    assert np.array_equal(fac.beta[:-1], beta)
    assert np.array_equal(fac.basis @ (np.linalg.norm(rho) * tridiag_expv(alpha, beta, dt)),
                          result.state)


def _reference_step(l_op, rho, dt, eps=1e-7, m_max=25):
    """``krylov_step`` written out: a Lanczos loop with out-of-place updates and
    ``np.linalg.norm``, and ``scipy.linalg.eigh_tridiagonal`` for ``exp(-i*T*dt) e_1``.

    Every size is tested (``krylov_step`` tests each one up to 30); returns
    ``(state, m_used)``.
    """
    norm0 = np.linalg.norm(rho)
    basis = np.empty((rho.shape[0], m_max), dtype=complex)
    alpha, beta = [], []
    q, q_prev, beta_prev = rho / norm0, np.zeros_like(rho), 0.0
    passed = False
    for m in range(1, m_max + 1):
        basis[:, m - 1] = q
        w = spmv(l_op, q)
        a = np.vdot(q, w).real
        w = w - a * q - beta_prev * q_prev
        w -= basis[:, :m] @ np.conj(basis[:, :m].T @ np.conj(w))
        b = np.linalg.norm(w)
        alpha.append(a)
        beta.append(b)
        if m == 1:
            col = np.array([np.exp(-1j * a * dt)])
        else:
            lam, u = scipy.linalg.eigh_tridiagonal(np.array(alpha), np.array(beta[:-1]))
            col = u @ (np.exp(-1j * lam * dt) * u[0, :])
        breakdown = b < 1e-14 * norm0
        done = passed or breakdown
        passed = dt * b * abs(col[-1]) <= eps
        if done or (passed and m == m_max):
            return basis[:, :m] @ (norm0 * col), m
        q_prev, q, beta_prev = q, w / b, b
    return basis @ (norm0 * col), m_max


@pytest.mark.parametrize("dt", [0.05, 0.2, 0.5])
def test_step_is_bitwise_equal_to_the_eigh_tridiagonal_reference(rng, dt):
    # for m <= 25 eigh_tridiagonal's ?stevd runs the same ?steqr as ?stev
    systems = [random_sparse_hermitian(90, rng, density=0.2, scale=1.5)]
    spec = SpinSystemSpec(n=4, omega0=[0.7, 1.3, 1.9, 2.2],
                          j_coupling=0.1 * (np.ones((4, 4)) - np.eye(4)))
    systems.append(build_liouvillian(build_hamiltonian(spec)))
    for l_op in systems:
        rho = rng.standard_normal(l_op.nrows) + 1j * rng.standard_normal(l_op.nrows)
        for _ in range(3):
            result = krylov_step(l_op, rho, dt)
            state, m_used = _reference_step(l_op, rho, dt)
            assert result.converged and 2 <= result.m_used <= 25
            assert result.m_used == m_used
            assert result.state.tobytes() == state.tobytes()
            rho = result.state
