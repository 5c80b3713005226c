import numpy as np
import pytest
import scipy.sparse

from qexpect import (
    ConfigError,
    SparseMatrix,
    SpinSystemSpec,
    build_hamiltonian,
    build_liouvillian,
    embed,
    initial_state,
    observable_by_name,
    observable_ip,
    spin_half,
    trace_form,
)

from qexpect.cli import benchmark_spec

from conftest import random_spin_spec, same_csr


def _kron_site(op, site, n):
    """Reference single-site operator, ``Id (x) op (x) Id`` from scipy Kronecker products."""
    left = scipy.sparse.kron(scipy.sparse.identity(2**site), op)
    return SparseMatrix(scipy.sparse.kron(left, scipy.sparse.identity(2 ** (n - 1 - site)))).csr


def _kron_hamiltonian(spec):
    """Reference Hamiltonian: the sum of embedded terms, Zeeman first, pairs in order."""
    ops, n = spin_half(), spec.n
    h = SparseMatrix.zeros(2**n).csr
    for j in range(n):
        if spec.omega0[j] != 0.0:
            h = h + (-spec.omega0[j]) * _kron_site(ops.iz, j, n)
    for j in range(n):
        for l in range(j + 1, n):
            if spec.j_coupling[j, l] != 0.0:
                for axis in (ops.ix, ops.iy, ops.iz):
                    h = h + spec.j_coupling[j, l] * (_kron_site(axis, j, n) @ _kron_site(axis, l, n))
    return SparseMatrix(h)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8])
def test_hamiltonian_equals_kronecker_sum_bitwise(n, rng):
    specs = [benchmark_spec(n), random_spin_spec(n, rng)]
    # zero Larmor frequencies and zero couplings drop their terms
    omega0 = np.where(np.arange(n) % 2 == 0, 0.0, specs[1].omega0)
    j = np.where(np.add.outer(np.arange(n), np.arange(n)) % 3 == 0, 0.0, specs[1].j_coupling)
    specs.append(SpinSystemSpec(n=n, omega0=omega0, j_coupling=j))
    for spec in specs:
        assert same_csr(build_hamiltonian(spec), _kron_hamiltonian(spec))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_embed_equals_kronecker_product(n):
    ops = spin_half()
    for op in (ops.ix, ops.iy, ops.iz, ops.ip):
        for site in range(n):
            assert same_csr(embed(op, site, n), SparseMatrix(_kron_site(op, site, n)))


def test_operator_set_basics():
    ops = spin_half()
    assert np.array_equal(ops.iz, np.diag([0.5, -0.5]))
    comm = ops.ix @ ops.iy - ops.iy @ ops.ix
    assert np.allclose(comm, 1j * ops.iz, atol=1e-15)
    for op in (ops.ix, ops.iy, ops.iz):
        assert np.allclose(op, op.conj().T)
        assert np.allclose(np.sort(np.linalg.eigvalsh(op)), [-0.5, 0.5])


def test_shift_up_matrix():
    assert np.array_equal(spin_half().ip, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_embed_single_site():
    ops = spin_half()
    assert np.array_equal(embed(ops.iz, 0, 1).to_dense(), np.diag([0.5, -0.5]))


def test_embed_identity_padding():
    ops = spin_half()
    assert np.array_equal(
        np.diag(embed(ops.iz, 0, 2).to_dense()).real, [0.5, 0.5, -0.5, -0.5]
    )


def test_embed_second_site():
    ops = spin_half()
    m = embed(ops.ix, 1, 2).to_dense()
    expected = np.zeros((4, 4))
    for r, c in [(0, 1), (1, 0), (2, 3), (3, 2)]:
        expected[r, c] = 0.5
    assert np.array_equal(m, expected)


def test_embed_site_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        embed(spin_half().iz, 2, 2)


def test_hamiltonian_single_spin():
    spec = SpinSystemSpec(n=1, omega0=[3.0], j_coupling=np.zeros((1, 1)))
    h = build_hamiltonian(spec).to_dense()
    assert np.allclose(h, -3.0 * np.diag([0.5, -0.5]))


def test_hamiltonian_pure_coupling_spectrum():
    j = 4.0
    spec = SpinSystemSpec(n=2, omega0=[0.0, 0.0], j_coupling=[[0.0, j], [j, 0.0]])
    eigs = np.linalg.eigvalsh(build_hamiltonian(spec).to_dense())
    # singlet-triplet split: J/4 three times, -3J/4 once
    assert np.allclose(np.sort(eigs), [-3 * j / 4, j / 4, j / 4, j / 4], atol=1e-13)


def test_hamiltonian_two_equal_shifts():
    w = 2.5
    spec = SpinSystemSpec(n=2, omega0=[w, w], j_coupling=np.zeros((2, 2)))
    h = build_hamiltonian(spec).to_dense()
    assert np.allclose(h, np.diag([-w, 0.0, 0.0, w]), atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hamiltonian_and_liouvillian_hermitian(n, rng):
    spec = random_spin_spec(n, rng)
    h = build_hamiltonian(spec).to_dense()
    assert np.max(np.abs(h - h.conj().T)) <= 1e-14
    l_d = build_liouvillian(build_hamiltonian(spec)).to_dense()
    assert np.max(np.abs(l_d - l_d.conj().T)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_liouvillian_is_commutator_superoperator(n, rng):
    """The convention check: L vec(rho) must equal vec(H rho - rho H)."""
    spec = random_spin_spec(n, rng)
    h = build_hamiltonian(spec)
    l_op = build_liouvillian(h)
    dim = spec.hilbert_dim
    rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h_d = h.to_dense()
    # vec(M) is column stacking, M.ravel(order="F")
    lhs = (l_op.csr @ rho.ravel(order="F")).reshape((dim, dim), order="F")
    rhs = h_d @ rho - rho @ h_d
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1.0)


def test_liouvillian_single_spin_spectrum():
    w = 1.7
    spec = SpinSystemSpec(n=1, omega0=[w], j_coupling=np.zeros((1, 1)))
    l_op = build_liouvillian(build_hamiltonian(spec))
    eigs = np.sort(np.linalg.eigvalsh(l_op.to_dense()))
    assert np.allclose(eigs, [-w, 0.0, 0.0, w], atol=1e-13)


def test_liouvillian_of_identity_vanishes():
    from qexpect import SparseMatrix

    l_op = build_liouvillian(SparseMatrix.identity(4))
    assert l_op.nnz == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_liouvillian_spectrum_symmetric(n, rng):
    spec = random_spin_spec(n, rng)
    l_op = build_liouvillian(build_hamiltonian(spec))
    eigs = np.sort(np.linalg.eigvalsh(l_op.to_dense()))
    assert np.max(np.abs(eigs + eigs[::-1])) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_liouvillian_sparsity_matches_dense_count(n, rng):
    spec = random_spin_spec(n, rng)
    h = build_hamiltonian(spec)
    l_op = build_liouvillian(h)
    h_d = h.to_dense()
    ident = np.eye(spec.hilbert_dim)
    dense_l = np.kron(ident, h_d) - np.kron(h_d.T, ident)
    assert l_op.nnz == np.count_nonzero(dense_l)


def test_initial_state_single_spin():
    rho = initial_state(1).reshape((2, 2), order="F")
    assert np.allclose(rho, np.array([[0.0, 0.5j], [-0.5j, 0.0]]))
    assert abs(np.trace(rho)) == 0.0
    assert np.allclose(rho, rho.conj().T)


def _dense_initial_state(n):
    """Reference ``-sum_j Iy_j``: one densified embedded operator subtracted per site."""
    rho = np.zeros((2**n, 2**n), dtype=np.complex128)
    for j in range(n):
        rho -= _kron_site(spin_half().iy, j, n).toarray()
    return rho.ravel(order="F")


@pytest.mark.parametrize("n", range(1, 9))
def test_initial_state_equals_dense_sum_bitwise(n):
    assert initial_state(n).tobytes() == _dense_initial_state(n).tobytes()


def test_initial_state_two_spins_pattern():
    v = initial_state(2)
    nz = v[v != 0]
    assert nz.shape[0] == 8
    assert np.allclose(np.abs(nz), 0.5)


def test_observable_ip_single_spin():
    q = observable_ip(1)
    assert q.nnz == 1
    assert q.to_dense()[0, 1] == 1.0


def test_fid_at_time_zero_single_spin():
    f0 = trace_form(observable_ip(1)) @ initial_state(1)
    assert f0 == pytest.approx(-0.5j)


def test_fid_at_time_zero_additive():
    # each spin contributes -i/2 times the trace of the identity padding
    for n in (2, 3):
        f0 = trace_form(observable_ip(n)) @ initial_state(n)
        expected = -0.5j * n * 2 ** (n - 1)
        assert f0 == pytest.approx(expected)
        # cross-checked against the dense trace
        rho = initial_state(n).reshape((2**n, 2**n), order="F")
        dense = np.trace(rho @ observable_ip(n).to_dense())
        assert f0 == pytest.approx(dense)


def test_observable_iz_total():
    q = observable_by_name("iz", 2).to_dense()
    assert np.allclose(q, np.diag([1.0, 0.0, 0.0, -1.0]))


def test_observable_by_name():
    assert np.array_equal(observable_by_name("ip", 2).to_dense(), observable_ip(2).to_dense())
    site = observable_by_name("iz:1", 2).to_dense()
    assert np.allclose(site, np.diag([0.5, -0.5, 0.5, -0.5]))
    with pytest.raises(ConfigError, match="unknown observable"):
        observable_by_name("sx", 2)
    with pytest.raises(ConfigError, match="site"):
        observable_by_name("iz:5", 2)
    with pytest.raises(ConfigError, match="bad site index"):
        observable_by_name("ip:", 2)


def test_spec_validation():
    with pytest.raises(ConfigError, match="symmetric"):
        SpinSystemSpec(n=2, omega0=[1.0, 2.0], j_coupling=[[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ConfigError, match="diagonal"):
        SpinSystemSpec(n=2, omega0=[1.0, 2.0], j_coupling=[[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConfigError, match="shape"):
        SpinSystemSpec(n=2, omega0=[1.0], j_coupling=np.zeros((2, 2)))
    with pytest.raises(ConfigError, match="finite"):
        SpinSystemSpec(n=1, omega0=[np.inf], j_coupling=np.zeros((1, 1)))
