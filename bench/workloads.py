"""Seeded inputs, user operations and correctness referees of the workloads.

Inputs come from the benchmark's own generator, which copies the
``qexpect.cli.benchmark_spec`` distribution (Larmor frequencies
U(0.5, 2.5), nearest and next-nearest couplings U(0.02, 0.2)) but draws
from ``--seed``, so an edit to the program cannot change what is measured.

Each workload offers ``inputs(i)`` (untimed), ``op(inputs)`` (the timed user
request, returning an ``ExpectationTrace``), ``record(inputs, out)`` (what
the referee needs, kept until after the timed loop) and
``verify(records)`` (one relative error per record, see :func:`rel_error`).
Every op runs at eps = 1e-7 and passes when its error is at most ``RTOL``.
"""

from __future__ import annotations

import os

import numpy as np

from qexpect import cli, dec, oracle, sparse, spinsys

EPS = 1e-7
DT = 0.1
RTOL = 1e-6
_WEYL = np.array([(5.0 ** 0.5 - 1.0) / 2.0, 2.0 ** 0.5 - 1.0])


def spin_specs(n: int, count: int, rng) -> list:
    """``count`` weakly coupled chains with the ``benchmark_spec`` distribution.

    Each Larmor frequency is U(0.5, 2.5) and each nearest and next-nearest
    coupling U(0.02, 0.2), independently within a system. Across the pool,
    the ``count`` draws of one parameter fill ``count`` equal strata in random
    order (a Latin hypercube), so every run covers the whole range instead
    of a seed-dependent corner of it; op cost follows sum(omega0) closely.
    """

    def strata(lo, hi):
        return lo + (hi - lo) * (rng.permutation(count) + rng.uniform(size=count)) / count

    pairs = [(a, b) for a in range(n) for b in range(a + 1, min(a + 3, n))]
    omega0 = np.column_stack([strata(0.5, 2.5) for _ in range(n)])
    coupling = np.column_stack([strata(0.02, 0.2) for _ in pairs])
    specs = []
    for k in range(count):
        j = np.zeros((n, n))
        for (a, b), value in zip(pairs, coupling[k]):
            j[a, b] = j[b, a] = value
        specs.append(spinsys.SpinSystemSpec(n=n, omega0=omega0[k], j_coupling=j))
    return specs


def _rng(seed: int, *key: int):
    return np.random.default_rng([seed, *key])


def rel_error(values, reference) -> float:
    """Worst per-observable deviation relative to the reference's peak modulus."""
    scale = np.max(np.abs(reference), axis=1)
    return float(np.max(np.max(np.abs(values - reference), axis=1) / scale))


def _system(spec):
    l_op = spinsys.build_liouvillian(spinsys.build_hamiltonian(spec))
    return l_op, spinsys.initial_state(spec.n)


class OracleReference:
    """Dense-oracle expectations of the named observables, exact to roundoff.

    These systems conserve total Iz, so L never couples coordinates
    ``rho[i, j]`` of different coherence order ``m_i - m_j``, and the ``ip``
    observables read only order -1. The oracle therefore runs on that block
    (dim 210 instead of 1024 at 5 spins). Both facts are checked on the
    operator; if either fails the full space is used.
    """

    def __init__(self, spec, names):
        l_op, rho0 = _system(spec)
        w = {name: sparse.trace_form(spinsys.observable_by_name(name, spec.n))
             for name in names}
        m = spec.n / 2.0 - np.array([bin(s).count("1") for s in range(spec.hilbert_dim)])
        order = (m[:, None] - m[None, :]).ravel(order="F")  # vec index i + j*dim
        block, rest = np.nonzero(order == -1)[0], np.nonzero(order != -1)[0]
        closed = l_op.csr[block][:, rest].nnz == 0 and l_op.csr[rest][:, block].nnz == 0
        if not (closed and all(not np.any(v[rest]) for v in w.values())):
            block = np.arange(l_op.nrows)
        self.eig = oracle.dense_eig(l_op.restrict(block))
        self.rho0 = rho0[block]
        self.w = {name: v[block] for name, v in w.items()}

    def __call__(self, times) -> np.ndarray:
        return oracle.oracle_expect(self.eig, self.rho0, self.w, times).values


def _run(spec, engine: str, steps: int, dt: float = DT):
    return cli.run_simulation(cli.RunConfig(
        system=spec, engine=engine, dt=dt, steps=steps, eps=EPS, observables=("ip",)))


class DecRecurrence:
    """``run_simulation`` with the ``dec`` engine on 7-spin systems (dim 16384).

    The horizon sets the number of stored orders and hence the length of the
    vector recurrence. Each op takes a horizon between ``STEPS[0]`` and
    ``STEPS[1]`` steps of ``DT``: a spread of op costs keeps the median
    moving smoothly with machine speed, where ops of one cost make it jump
    between a fast and a slow value. The referee is the ``cheb`` stepper
    (the dense oracle is capped at dim 4096), run once per system with a step
    of ``STRIDE * DT`` to the longest horizon: every ``STRIDE``-th grid point
    is checked, from t = 0 to the op's horizon, so every stored order is
    exercised.
    """

    name = "dec-recurrence"
    N_SPINS = 7
    STEPS = (60, 340)
    POOL = 12
    STRIDE = 5

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 1)
        self.specs = spin_specs(self.N_SPINS, self.POOL, rng)
        self.offset = rng.uniform()

    def inputs(self, i: int):
        # a Weyl sequence from a seeded offset spreads the horizons evenly
        # over their range in a run of any length
        lo, hi = (s // self.STRIDE for s in self.STEPS)
        u = (self.offset + (i + 1) * _WEYL[0]) % 1.0
        return i % self.POOL, self.STRIDE * (lo + int(u * (hi - lo + 1)))

    def op(self, inp):
        k, steps = inp
        return _run(self.specs[k], "dec", steps)

    def record(self, inp, out):
        return inp[0], out.values[:, :: self.STRIDE].copy()

    def verify(self, records):
        refs = {k: _run(self.specs[k], "cheb", self.STEPS[1] // self.STRIDE,
                        dt=self.STRIDE * DT).values
                for k in sorted({r[0] for r in records})}
        return [rel_error(values, refs[k][:, :values.shape[1]]) for k, values in records]


class DecEval:
    """Write-once, read-many use of the ``dec`` sidecar on 5-spin systems.

    Setup precomputes and saves ``POOL`` sidecars (tau = 200, observables
    ``ip`` and ``ip:0`` .. ``ip:4``). Each op loads one, evaluates it on a
    uniform grid of ``POINTS`` points ending between tau/2 and tau, and
    writes the CSV: zero matvecs. The referee compares ``CHECKED`` evenly
    spaced points of every op with the dense oracle, and reads back the
    last op's CSV.
    """

    name = "dec-eval"
    N_SPINS = 5
    TAU = 200.0
    POOL = 6
    POINTS = (1001, 2001)
    CHECKED = 128
    OBSERVABLES = ("ip", "ip:0", "ip:1", "ip:2", "ip:3", "ip:4")

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 2)
        self.specs = spin_specs(self.N_SPINS, self.POOL, rng)
        self.offsets = rng.uniform(size=2)
        self.paths = []
        for k, spec in enumerate(self.specs):
            l_op, rho0 = _system(spec)
            series = dec.dec_precompute(l_op, rho0, self._observables(), tau=self.TAU, eps=EPS)
            path = os.path.join(workdir, f"system{k}.decs")
            dec.save_series(series, path)
            self.paths.append(path)
        self.csv_path = os.path.join(workdir, "fid.csv")
        self.last = None

    def _observables(self):
        return {name: spinsys.observable_by_name(name, self.N_SPINS)
                for name in self.OBSERVABLES}

    def inputs(self, i: int):
        # Weyl sequences from seeded offsets: a run of any length spreads its
        # grid sizes and end times evenly over their ranges
        u = (self.offsets + (i + 1) * _WEYL) % 1.0
        n = self.POINTS[0] + int(u[0] * (self.POINTS[1] - self.POINTS[0] + 1))
        t_end = self.TAU * (0.5 + 0.5 * u[1])
        return i % self.POOL, np.linspace(0.0, t_end, n)

    def op(self, inp):
        k, times = inp
        series = dec.load_series(self.paths[k])
        trace = dec.dec_evaluate_grid(series, times)
        cli.write_trace_csv(trace, self.csv_path)
        return trace

    def record(self, inp, out):
        k, times = inp
        self.last = out
        idx = np.linspace(0, times.shape[0] - 1, self.CHECKED).astype(int)
        return k, times[idx], out.values[:, idx].copy()

    def csv_matches_last(self) -> bool:
        """The last op's CSV round-trips to its trace exactly (17 digits)."""
        data = np.loadtxt(self.csv_path, delimiter=",", skiprows=1, ndmin=2)
        values = data[:, 1::2] + 1j * data[:, 2::2]
        return (np.array_equal(data[:, 0], self.last.times)
                and np.array_equal(values.T, self.last.values))

    def verify(self, records):
        refs = {k: OracleReference(self.specs[k], self.OBSERVABLES)
                for k in sorted({r[0] for r in records})}
        errors = [rel_error(values, refs[k](times)) for k, times, values in records]
        if records and not self.csv_matches_last():
            errors[-1] = float("inf")
        return errors


class Steppers:
    """``run_simulation`` rotating through ``cheb``, ``krylov`` and ``zte``.

    5-spin systems (dim 1024); op ``i`` uses engine ``i % 3`` on system
    ``i % POOL``, and ``POOL`` is prime to 3, so every pairing occurs. At
    ``STEPS`` the three engines cost about the same per op: with unequal
    engines the op times fall in separate clusters, and a percentile that
    lands between two of them jumps from run to run. Each op scales its
    engine's step count by a factor in ``SCALE``, for the spread of op costs
    that :class:`DecRecurrence` explains. The referee is the dense oracle.
    """

    name = "steppers"
    N_SPINS = 5
    STEPS = {"cheb": 350, "krylov": 160, "zte": 100}
    SCALE = (0.5, 1.5)
    POOL = 32
    ENGINES = tuple(STEPS)

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 3)
        self.specs = spin_specs(self.N_SPINS, self.POOL, rng)
        self.offset = rng.uniform()

    def inputs(self, i: int):
        engine = self.ENGINES[i % len(self.ENGINES)]
        u = (self.offset + (i + 1) * _WEYL[0]) % 1.0
        scale = self.SCALE[0] + u * (self.SCALE[1] - self.SCALE[0])
        return i % self.POOL, engine, round(scale * self.STEPS[engine])

    def op(self, inp):
        k, engine, steps = inp
        return _run(self.specs[k], engine, steps)

    def record(self, inp, out):
        return inp[0], out.values.copy()

    def verify(self, records):
        times = DT * np.arange(round(self.SCALE[1] * max(self.STEPS.values())) + 1)
        refs = {k: OracleReference(self.specs[k], ("ip",))(times)
                for k in sorted({r[0] for r in records})}
        return [rel_error(values, refs[k][:, :values.shape[1]]) for k, values in records]


WORKLOADS = {w.name: w for w in (DecRecurrence, DecEval, Steppers)}
