"""The trace block: engines propagate only the Liouville coordinates the trace reads."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpect import (
    NumericalError,
    SparseMatrix,
    SpinSystemSpec,
    build_hamiltonian,
    build_liouvillian,
    dense_eig,
    initial_state,
    normalize_observables,
    observable_by_name,
    oracle_expect,
    spmv,
)
from qexpect.cli import RunConfig, benchmark_spec, run_simulation
from qexpect.spectral import INFLATION_FLOOR
from qexpect.spinsys import SECTOR_PAD, TraceSystem, assemble, hilbert_components, trace_block

from conftest import random_spin_spec, same_csr


def _weights(spec, names):
    return normalize_observables({name: observable_by_name(name, spec.n) for name in names},
                                 spec.liouville_dim)[1]


def _uncoupled(n):
    return SpinSystemSpec(n=n, omega0=np.arange(1.0, n + 1.0), j_coupling=np.zeros((n, n)))


def _zero_frequency_chain(n):
    j = np.diag(np.full(n - 1, 0.3), 1)
    return SpinSystemSpec(n=n, omega0=np.zeros(n), j_coupling=j + j.T)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_operator_equals_restricted_full_operator(n, rng):
    specs = (benchmark_spec(n), random_spin_spec(n, rng), _uncoupled(n), _zero_frequency_chain(n))
    for spec in specs:
        h = build_hamiltonian(spec)
        full = build_liouvillian(h)
        rho0 = initial_state(n)
        for names in (("ip",), ("ip", "ix"), ("iz",), ("ip:0",)):
            w_rows = _weights(spec, names)
            index = trace_block(h, rho0, w_rows)
            system = assemble(spec, names)
            assert same_csr(system.l_op, full.restrict(index)), (spec, names)
            assert np.array_equal(system.rho0, rho0[index])
            for w_block, w in zip(system.observables.values(), w_rows, strict=True):
                assert np.array_equal(w_block, w[index])


def test_each_kept_pair_is_a_column_stacked_grid_of_its_sectors():
    spec = random_spin_spec(4, np.random.default_rng(3), all_pairs=False)
    h = build_hamiltonian(spec)
    for names in (("ip",), ("ip", "ix"), ("iz",)):
        rho0, w_rows = initial_state(4), _weights(spec, names)
        system = assemble(spec, names)
        index = trace_block(h, rho0, w_rows)
        start = 0
        for a, b in system.pairs:
            s_a = np.flatnonzero(system.components == a)
            s_b = np.flatnonzero(system.components == b)
            grid = s_a[:, None] + s_b[None, :] * h.nrows  # rho[i, j] at (rank i, rank j)
            stop = start + grid.size
            assert np.array_equal(index[start:stop], grid.ravel(order="F"))
            start = stop
        assert start == index.shape[0] == system.block_dim


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_operator_is_the_kronecker_commutator(n, rng):
    h = build_hamiltonian(random_spin_spec(n, rng))
    h_d = h.to_dense()
    ident = np.eye(h.nrows)
    assert np.array_equal(build_liouvillian(h).to_dense(),
                          np.kron(ident, h_d) - np.kron(h_d.T, ident))


def test_components_are_the_iz_sectors_of_a_coupled_chain():
    label = hilbert_components(build_hamiltonian(benchmark_spec(5)))
    ups = np.array([5 - bin(s).count("1") for s in range(32)])
    assert np.array_equal(label[:, None] == label[None, :], ups[:, None] == ups[None, :])
    assert np.all(label <= np.arange(32))


def test_components_of_uncoupled_spins_are_single_states():
    label = hilbert_components(build_hamiltonian(_uncoupled(4)))
    assert np.array_equal(label, np.arange(16))


@pytest.mark.parametrize(("names", "dim"), [(("ip",), 3003), (("ip", "ix"), 6006),
                                            (("iz",), 6006), (("ip:3",), 3003)])
def test_block_sizes_at_seven_spins(names, dim):
    spec = benchmark_spec(7)
    index = trace_block(build_hamiltonian(spec), initial_state(7), _weights(spec, names))
    assert index.shape[0] == dim
    assert np.unique(index).shape[0] == dim


def test_uncoupled_block_keeps_single_coordinates():
    system = assemble(_uncoupled(7), ("ip",))
    assert system.block_dim == 7 * 2**6
    assert system.l_op.nnz == system.block_dim  # diagonal: no coupling between coordinates


def test_iz_only_run_returns_exact_zeros():
    # rho0 has coherence order +-1 only, and Iz reads order 0
    for engine in ("dec", "cheb", "krylov", "zte", "oracle"):
        cfg = RunConfig(system=benchmark_spec(3), engine=engine, dt=0.1, steps=20,
                        observables=("iz",))
        trace = run_simulation(cfg)
        assert np.all(trace.values == 0.0), engine
        assert trace.metadata["block_dim"] == 2 * 15


_FREQ = st.one_of(st.just(0.0), st.floats(0.5, 2.5))
_COUPLING = st.one_of(st.just(0.0), st.floats(0.02, 0.5))


@st.composite
def _assembly_problems(draw):
    """Systems of up to 7 spins whose couplings and Larmor frequencies may
    vanish (many small sectors, and the "no kept pair" fallback for ``iz``),
    with totals and site-resolved observables."""
    n = draw(st.integers(1, 7))
    omega0 = np.array(draw(st.lists(_FREQ, min_size=n, max_size=n)))
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            j[a, b] = j[b, a] = draw(_COUPLING)
    pool = ["ip", "ix", "iy", "iz"] + [f"{op}:{k}" for op in ("ip", "iy", "iz") for k in range(n)]
    names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    return SpinSystemSpec(n=n, omega0=omega0, j_coupling=j), tuple(names)


@settings(max_examples=60, deadline=None)
@given(_assembly_problems())
def test_assembled_block_reads_the_full_vectors_bitwise(problem):
    """``assemble`` reads ``rho0`` and the trace forms at the block's
    coordinates; they equal the full-space vectors restricted to
    :func:`trace_block`'s index byte for byte, the sign of zero included."""
    spec, names = problem
    system = assemble(spec, names)
    w_rows = _weights(spec, names)
    index = trace_block(build_hamiltonian(spec), initial_state(spec.n), w_rows)
    assert system.block_dim == index.shape[0]
    assert system.rho0.tobytes() == initial_state(spec.n)[index].tobytes()
    assert tuple(system.observables) == names
    for name, w in zip(names, w_rows, strict=True):
        assert system.observables[name].tobytes() == w[index].tobytes(), name


def test_assemble_builds_no_liouville_length_vector():
    # one complex vector of length 4**10 takes 16 MiB
    assemble(benchmark_spec(3), ("ip",))  # first-call setup outside the measurement
    tracemalloc.start()
    try:
        assemble(benchmark_spec(10), ("ip",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_assemble_needs_an_observable():
    with pytest.raises(ValueError, match="at least one observable is required"):
        assemble(benchmark_spec(2), [])


@st.composite
def _problems(draw):
    n = draw(st.integers(1, 4))
    omega0 = np.array(draw(st.lists(_FREQ, min_size=n, max_size=n)))
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            j[a, b] = j[b, a] = draw(_COUPLING)
    pool = ["ip", "ix", "iz"] + [f"ip:{k}" for k in range(n)]
    names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    return SpinSystemSpec(n=n, omega0=omega0, j_coupling=j), tuple(names)


@settings(max_examples=25, deadline=None)
@given(_problems())
def test_every_engine_on_the_block_matches_the_full_space_oracle(problem):
    """Sparse engines stay within ``eps * ||w_q|| * ||rho0||`` of the full-space
    oracle, and the block oracle within 1e-10 of the largest |f|, above a
    roundoff floor of 1e-13 * ||w_q|| * ||rho0|| for traces that vanish."""
    spec, names = problem
    eps, steps = 1e-7, 30
    h = build_hamiltonian(spec)
    rho0 = initial_state(spec.n)
    obs = {name: observable_by_name(name, spec.n) for name in names}
    times = 0.1 * np.arange(steps + 1)
    reference = oracle_expect(dense_eig(build_liouvillian(h)), rho0, obs, times).values
    norms = np.linalg.norm(_weights(spec, names), axis=1) * np.linalg.norm(rho0)
    for engine in ("dec", "cheb", "krylov", "zte", "oracle"):
        cfg = RunConfig(system=spec, engine=engine, dt=0.1, steps=steps, eps=eps,
                        observables=names)
        if engine == "zte" and not np.any(spec.omega0):
            with pytest.raises(NumericalError, match="observation window"):
                run_simulation(cfg)
            continue
        trace = run_simulation(cfg)
        assert trace.labels == names
        err = np.max(np.abs(trace.values - reference), axis=1)
        if engine == "oracle":
            tol = 1e-10 * np.max(np.abs(reference)) + 1e-13 * norms
        else:
            tol = eps * norms
        assert np.all(err <= tol), (engine, err, tol)


@settings(max_examples=40, deadline=None)
@given(_problems())
def test_sector_interval_is_the_padded_block_spectrum(problem):
    """The interval holds every eigenvalue of the block L, and each endpoint
    lies the documented margin (to the roundoff of two eigensolvers) beyond
    the extreme eigenvalue."""
    spec, names = problem
    system = assemble(spec, names)
    scaling = system.spectral_interval()
    lam = dense_eig(system.l_op).lam
    margin = SECTOR_PAD * max(abs(scaling.alpha), abs(scaling.beta)) + INFLATION_FLOOR
    roundoff = 1e-12 * max(1.0, np.max(np.abs(lam)))
    assert scaling.beta <= lam[0] and lam[-1] <= scaling.alpha
    assert scaling.alpha - lam[-1] <= margin + roundoff
    assert lam[0] - scaling.beta <= margin + roundoff


def test_sector_interval_equals_the_dense_extremes_at_six_spins():
    system = assemble(benchmark_spec(6), ("ip",))
    scaling = system.spectral_interval()
    lam = dense_eig(system.l_op).lam
    margin = SECTOR_PAD * max(abs(scaling.alpha), abs(scaling.beta)) + INFLATION_FLOOR
    assert abs(scaling.alpha - margin - lam[-1]) <= 1e-12 * np.max(np.abs(lam))
    assert abs(scaling.beta + margin - lam[0]) <= 1e-12 * np.max(np.abs(lam))


@pytest.mark.parametrize("engine", ["krylov", "zte", "oracle"])
def test_engines_that_do_not_rescale_skip_the_sector_interval(monkeypatch, engine):
    def refuse(self):
        raise AssertionError("spectral interval computed")

    monkeypatch.setattr(TraceSystem, "spectral_interval", refuse)
    run_simulation(RunConfig(system=benchmark_spec(3), engine=engine, dt=0.1, steps=5))


_SECTOR_SETS = (("ip",), ("ip", "ip:0"), ("ix",), ("iz",), ("iy", "ix:1"))


@st.composite
def _sector_problems(draw):
    """Systems with many small sectors: couplings that vanish, and Larmor
    frequencies that vanish or coincide. ``variant`` perturbs one stored
    off-diagonal entry of a kept sector: by one ulp, which breaks the
    symmetry, or by a Hermitian pair of imaginary parts."""
    n = draw(st.integers(1, 6))
    shared = draw(st.floats(0.5, 2.5))
    omega0 = draw(st.lists(st.one_of(st.just(0.0), st.just(shared), st.floats(0.5, 2.5)),
                           min_size=n, max_size=n))
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            j[a, b] = j[b, a] = draw(_COUPLING)
    names = draw(st.sampled_from([s for s in _SECTOR_SETS if n > 1 or "ix:1" not in s]))
    variant = draw(st.sampled_from(["as built", "one ulp off", "complex"]))
    spec = SpinSystemSpec(n=n, omega0=np.array(omega0), j_coupling=j)
    return spec, names, variant, draw(st.integers(0, 2**32 - 1))


def _perturbed(system, variant):
    """``system`` with one off-diagonal entry of a kept sector of H changed."""
    csr = system.hamiltonian.csr.copy()
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    kept = np.isin(system.components[rows], system.pairs)
    off = np.flatnonzero(kept & (csr.indices != rows))
    if variant == "as built" or off.size == 0:
        return system
    k = off[0]
    if variant == "one ulp off":
        csr.data[k] = np.nextafter(csr.data[k].real, np.inf)
    else:
        twin = np.flatnonzero((rows == csr.indices[k]) & (csr.indices == rows[k]))[0]
        csr.data[k] += 0.25j
        csr.data[twin] -= 0.25j
    return TraceSystem(rho0=system.rho0, observables=system.observables,
                       hamiltonian=SparseMatrix(csr), components=system.components,
                       pairs=system.pairs)


@settings(max_examples=60, deadline=None)
@given(_sector_problems())
def test_sector_operator_equals_the_block_csr(problem):
    """The sector operator, plain and rescaled, equals the block CSR of
    ``build_liouvillian`` and its ``rescale``, complex and real, on random
    vectors, to 1e-14 of the operator's scale, and its flags are the CSR's
    exact checks. The spectral interval read off the same sectors, complex
    and 1×1 ones included, holds the dense block spectrum as in
    :func:`test_sector_interval_is_the_padded_block_spectrum`."""
    spec, names, variant, seed = problem
    system = _perturbed(assemble(spec, names), variant)
    l_op = build_liouvillian(system.hamiltonian, (system.components, system.pairs))
    op = system.sector_op
    assert op.nrows == op.ncols == l_op.nrows == system.block_dim
    assert op.real == (not np.any(l_op.csr.data.imag))
    assert op.symmetric == l_op.symmetric

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.nrows) + 1j * rng.standard_normal(op.nrows)
    y = rng.standard_normal(op.nrows)
    norm = abs(l_op.csr).sum(axis=1).max()  # infinity norm of L

    def close(a, b, scale, v):
        product = spmv(a, v)
        assert product.dtype == (np.float64 if a.real and v.dtype == np.float64
                                 else np.complex128)
        assert np.max(np.abs(product - spmv(b, v))) <= 1e-14 * scale * np.max(np.abs(v))

    close(op, l_op, norm, x)
    close(op, l_op, norm, y if op.real else x)
    scaling = system.spectral_interval()
    if system.block_dim <= 512:
        lam = np.linalg.eigvalsh(l_op.to_dense())
        margin = SECTOR_PAD * max(abs(scaling.alpha), abs(scaling.beta)) + INFLATION_FLOOR
        roundoff = 1e-12 * max(1.0, np.max(np.abs(lam)))
        assert scaling.beta <= lam[0] and lam[-1] <= scaling.alpha
        assert scaling.alpha - lam[-1] <= margin + roundoff
        assert lam[0] - scaling.beta <= margin + roundoff
    rescaled = op.rescale(scaling)
    assert (rescaled.real, rescaled.symmetric) == (op.real, op.symmetric)
    scale = (norm + abs(scaling.S)) / scaling.D
    close(rescaled, l_op.rescale(scaling), scale, x)
    if op.real:
        real = l_op.rescale(scaling, real=True)
        # rounding L/D can make a one-ulp asymmetry vanish from the rescaled
        # CSR; the flag keeps H's exact answer, which only costs the plain sweep
        assert real.symmetric or not rescaled.symmetric
        close(rescaled, real, scale, y)
