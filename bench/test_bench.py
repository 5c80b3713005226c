"""Tests of the benchmark's own machinery: span arithmetic, patching, counters."""

import sys

import numpy as np
import pytest

import spans
import workloads
from qexpect import cli


def test_self_times_on_synthetic_tree():
    tree = [
        spans.Span(0, "bench.op", None, 0, 0.0, 10.0),
        spans.Span(1, "a", 0, 0, 1.0, 4.0, leaf_s=0.5),
        spans.Span(2, "b", 0, 0, 5.0, 9.0),
        spans.Span(3, "c", 2, 0, 6.0, 7.0, leaf_s=0.25),
        spans.Span(4, "d", 2, 0, 7.5, 8.5),
    ]
    st = spans.self_times(tree)
    assert st == pytest.approx({0: 10.0 - 3.0 - 4.0, 1: 2.5, 2: 2.0, 3: 0.75, 4: 1.0})


def test_layer_times_account_for_the_whole_op():
    tr = spans.Tracer()
    tr.spans = [
        spans.Span(0, "bench.op", None, 0, 0.0, 2.0, leaf_s=0.1),
        spans.Span(1, "dec.dec_precompute", 0, 0, 0.5, 1.5, leaf_s=0.6),
    ]
    tr.leaf["sparse.spmv"] = [7, 0.7]
    tr.ops = 1
    by_name, by_layer, op_mean = spans.layer_times(tr)
    assert op_mean == pytest.approx(2.0)
    assert by_layer == pytest.approx({"bench": 0.9, "dec": 0.4, "sparse": 0.7})
    assert sum(by_layer.values()) == pytest.approx(op_mean)


def _qexpect_functions():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if mod is not None and (name == "qexpect" or name.startswith("qexpect."))
            for attr, value in vars(mod).items() if callable(value)}


def _tiny_spec():
    return workloads.spin_specs(3, 1, np.random.default_rng(5))[0]


@pytest.mark.parametrize("engine", ["dec", "cheb", "zte"])
def test_wrappers_are_gone_after_a_traced_run(engine):
    before = _qexpect_functions()
    tracer = spans.Tracer()
    cfg = cli.RunConfig(system=_tiny_spec(), engine=engine, dt=0.1, steps=20)
    with tracer.installed(), tracer.op(0):
        assert cli.run_simulation is not before[("qexpect.cli", "run_simulation")]
        cli.run_simulation(cfg)
    after = _qexpect_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not tracer.wrappers & set(after.values())
    assert tracer.leaf["sparse.spmv"][0] > 0
    assert {s.op for s in tracer.spans} == {0}


def test_wrappers_are_gone_when_the_op_raises():
    before = _qexpect_functions()
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            cli.run_simulation(cli.RunConfig(system=_tiny_spec(), dt=0.1, steps=5))
            raise ValueError("op failed")
    after = _qexpect_functions()
    assert all(after[k] is before[k] for k in before)


def _counters():
    tracer = spans.Tracer()
    cfg = cli.RunConfig(system=_tiny_spec(), engine="krylov", dt=0.1, steps=10)
    with tracer.installed(), tracer.op(0):
        cli.run_simulation(cfg)
    return spans.counters(tracer)


def test_counter_check_passes_on_identical_runs_and_fails_on_altered_count():
    first, second = _counters(), _counters()
    assert first["sparse.matvecs"] > 0
    assert spans.compare_counters(first, second) == []
    for name in spans.EXACT_COUNTERS:
        altered = dict(second, **{name: second[name] + 1})
        assert spans.compare_counters(first, altered) == [
            f"{name}: {first[name]!r} != {altered[name]!r}"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.Steppers(7, str(tmp_path))
    b = workloads.Steppers(7, str(tmp_path))
    c = workloads.Steppers(8, str(tmp_path))
    assert all(np.array_equal(x.omega0, y.omega0) and np.array_equal(x.j_coupling, y.j_coupling)
               for x, y in zip(a.specs, b.specs))
    assert not np.array_equal(a.specs[0].omega0, c.specs[0].omega0)
    omega0 = np.array([spec.omega0 for spec in a.specs])
    assert np.all((omega0 >= 0.5) & (omega0 <= 2.5))
    # one draw per stratum of each parameter across the pool
    strata = np.sort(np.floor((omega0 - 0.5) / 2.0 * a.POOL), axis=0)
    assert np.array_equal(strata, np.repeat(np.arange(a.POOL)[:, None], a.N_SPINS, axis=1))
    for spec in a.specs:
        couplings = spec.j_coupling[np.triu_indices(spec.n, 1)]
        nonzero = couplings[couplings != 0.0]
        assert nonzero.size == 2 * spec.n - 3
        assert np.all((nonzero >= 0.02) & (nonzero <= 0.2))


@pytest.mark.parametrize("names", [("ip", "ip:1"), ("ix",)])
def test_oracle_reference_matches_the_full_space_oracle(names):
    spec = _tiny_spec()
    times = 0.1 * np.arange(50)
    l_op, rho0 = workloads._system(spec)
    obs = {name: workloads.spinsys.observable_by_name(name, spec.n) for name in names}
    full = workloads.oracle.oracle_expect(workloads.oracle.dense_eig(l_op), rho0, obs, times)
    ref = workloads.OracleReference(spec, names)
    assert ref.eig.dim == (15 if names[0] == "ip" else l_op.nrows)
    assert workloads.rel_error(ref(times), full.values) < 1e-12
