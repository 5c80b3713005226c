import csv
import dataclasses
import itertools
import json
import os
import textwrap
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qexpect.cli as cli
import qexpect.spinsys as spinsys
from qexpect import (
    ConfigError,
    ResourceError,
    build_hamiltonian,
    build_liouvillian,
    dec_evaluate_grid,
    initial_state,
    load_series,
    matvec_counter,
    normalize_observables,
    observable_by_name,
    trace_block,
)
from qexpect.cli import (
    RunConfig,
    benchmark,
    benchmark_spec,
    main,
    parse_config,
    read_trace_csv,
    run_simulation,
    spectrum,
    write_trace_csv,
)
from qexpect.trace import ExpectationTrace


def make_config(**overrides):
    base = {
        "n": 2,
        "larmor_hz": "100 250",
        "j_hz": "\n  0 5\n  5 0",
        "extra_run": "",
        "engine": "dec",
        "dt": "0.0001",
        "steps": "200",
    }
    base.update(overrides)
    return textwrap.dedent(
        """\
        [system]
        n = {n}
        larmor_hz = {larmor_hz}
        j_hz = {j_hz}

        [run]
        engine = {engine}
        dt = {dt}
        steps = {steps}
        {extra_run}
        """
    ).format(**base)


def test_parse_minimal_defaults():
    cfg = parse_config("[system]\nn = 1\nlarmor_hz = 50\n")
    for field in dataclasses.fields(RunConfig):
        if field.name != "system":
            assert getattr(cfg, field.name) == field.default, field.name
    assert cfg.engine == "dec"
    assert cfg.eps == 1e-7
    assert cfg.dt == 0.1
    assert cfg.steps == 1000
    assert cfg.observables == ("ip",)
    assert cfg.system.omega0[0] == pytest.approx(2.0 * np.pi * 50.0)


def test_parse_rejects_asymmetric_coupling():
    text = make_config(j_hz="\n  0 5\n  6 0")
    with pytest.raises(ConfigError, match=r"J\[0,1\]"):
        parse_config(text)


def test_parse_names_missing_key():
    with pytest.raises(ConfigError, match=r"\[system\] larmor_hz"):
        parse_config("[system]\nn = 1\n")


def test_parse_validates_row_counts():
    with pytest.raises(ConfigError, match="j_hz has 1 rows"):
        parse_config("[system]\nn = 2\nlarmor_hz = 1 2\nj_hz =\n  0 0\n")


def test_parse_reports_liouville_dimension_for_dense_coupling():
    rows = "\n" + "\n".join(
        "  " + " ".join("0" if a == b else "2" for b in range(5)) for a in range(5)
    )
    text = make_config(n=5, larmor_hz="10 20 30 40 50", j_hz=rows)
    cfg = parse_config(text)
    assert cfg.system.liouville_dim == 1024
    assert np.count_nonzero(cfg.system.j_coupling) == 20  # all pairs coupled


def test_parse_rejects_unknown_engine():
    with pytest.raises(ConfigError, match="unknown engine"):
        parse_config(make_config(engine="magic"))


def test_oracle_and_dec_agree_through_csv(tmp_path):
    results = {}
    for engine in ("oracle", "dec"):
        cfg = parse_config(make_config(engine=engine))
        trace = run_simulation(cfg)
        path = tmp_path / f"{engine}.csv"
        write_trace_csv(trace, path)
        results[engine] = read_trace_csv(path)
    a, b = results["oracle"], results["dec"]
    assert np.array_equal(a.times, b.times)
    assert np.max(np.abs(a.values - b.values)) <= 1e-6


def test_single_step_run_has_two_rows(tmp_path):
    cfg = parse_config(make_config(steps="1"))
    trace = run_simulation(cfg)
    assert trace.n_times == 2
    assert trace.times[1] == pytest.approx(cfg.dt)


def test_trace_csv_roundtrip_is_exact(tmp_path, rng):
    times = np.cumsum(rng.random(37)) * 0.01
    values = rng.standard_normal((2, 37)) + 1j * rng.standard_normal((2, 37))
    trace = ExpectationTrace(times=times, labels=("a", "b"), values=values)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert np.array_equal(back.times, trace.times)
    assert np.array_equal(back.values, trace.values)
    assert back.labels == trace.labels


def test_trace_csv_bytes_match_per_value_format(tmp_path):
    # golden text: every number through "{:.17g}", the writer's contract
    specials = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 3.0, -42.0, 1e16, 2.5e-7]
    times = np.array(specials)
    re = np.array(specials[::-1])
    im = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 7.0, -5e-324, 1.0 / 3.0])
    values = np.empty((2, times.shape[0]), dtype=np.complex128)
    values.real = [re, im]
    values.imag = [im, re]
    trace = ExpectationTrace(times=times, labels=("a", "b:0"), values=values)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = ["t,re_a,im_a,re_b:0,im_b:0"]
    for k, t in enumerate(times):
        row = [t] + [part for q in range(2) for part in (values[q, k].real, values[q, k].imag)]
        lines.append(",".join("{:.17g}".format(x) for x in row))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _percent_17g(table):
    """The reference writer: every row one ``%`` call of ``%.17g`` fields."""
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(row_fmt % tuple(row) for row in table.tolist())


def _csv_mismatches(table):
    """(value, field written, '%.17g' field) for each field that differs."""
    got, want = cli._format_csv(table), _percent_17g(table)
    if got == want:
        return []
    split = [text.replace("\n", ",").split(",") for text in (got, want)]
    return [(v, a, b) for v, a, b in zip(table.ravel().tolist(), *split) if a != b] or [got[:200]]


#: Doubles whose exponent or last digit is the hardest to settle: 1e24 is
#: 9.9999999999999998e+23, whose exponent is not that of its rounded digits;
#: the double-double product of 1e20 lands a hair below 1e16; the ends of
#: the array path and of the doubles; an 18th digit that is a tie.
_HARD_DOUBLES = [1e24, 1e20, 1e22, 1e23, 1e16, 1e17, 99999999999999999.0, 1e-4, 1e-5,
                 1e220, 1e-220, 1.0000000000000001e220, 5e-324, 2.2250738585072014e-308,
                 1.7976931348623157e308, 0.5, 0.1, 123456789012345675.0, -0.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(table=arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 13)),
                    elements=st.floats()))
@example(table=np.array(_HARD_DOUBLES).reshape(-1, 1))
@example(table=-np.array(_HARD_DOUBLES).reshape(-1, 4))
def test_csv_text_is_percent_17g_value_for_value(table):
    # nan, infinities, -0.0 and subnormals included
    assert _csv_mismatches(table) == []


def test_csv_text_is_percent_17g_on_a_million_seeded_values():
    rng = np.random.default_rng(455)
    n = 150_000
    bits = np.frombuffer(rng.bytes(8 * n), dtype=np.float64)
    digits, scales = rng.integers(10 ** 16, 10 ** 17, n), rng.integers(-300, 301, n)
    decimals = digits * 10.0 ** (scales - 16)  # 17-digit decimals, subnormal ones included
    ties = [float(f"{m}5e{k - 17}") for m, k in zip(digits[:20_000].tolist(), scales.tolist())]
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    with np.errstate(over="ignore"):
        edges = np.concatenate([powers, 5 * powers, 0.5 * powers, (10 ** 17 - 1) * 1e-17 * powers])
    grids = [np.linspace(0.0, end, 1001) for end in rng.uniform(1.0, 300.0, 100)]
    values = np.concatenate([
        bits[np.isfinite(bits)], ties,
        *[np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])
          for v in (decimals, edges)],
        rng.standard_normal(n) * 10.0 ** rng.uniform(-20.0, 20.0, n),  # 40 decades
        np.round(rng.uniform(-1000.0, 1000.0, n), 3), *grids,
    ])
    values *= rng.choice([-1.0, 1.0], values.size)
    assert values.size >= 1_000_000
    assert _csv_mismatches(values[:values.size // 13 * 13].reshape(-1, 13)) == []


def test_exact_powers_of_ten_settle_their_exponent_in_one_correction(monkeypatch):
    # a product within 1e-9 below an integer counts as that integer: 1e20's
    # lands a hair below 1e16, and would move its exponent down, then up
    scaled = []
    real = cli._scaled
    monkeypatch.setattr(cli, "_scaled", lambda a, e: scaled.append(a.size) or real(a, e))
    table = 10.0 ** np.arange(23.0)[:, None]
    assert _csv_mismatches(table) == []
    assert len(scaled) <= 2


@pytest.mark.parametrize("block", [3, 10, 15, 10 ** 6])
def test_csv_file_is_written_block_by_block(tmp_path, monkeypatch, block):
    # blocks of one row (of fewer values than columns), two rows, three, all 11
    monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    table = np.random.default_rng(5).standard_normal((11, 5))
    path = tmp_path / "table.csv"
    cli._write_csv(path, list("abcde"), list(table.T))
    assert path.read_bytes() == ("a,b,c,d,e\n" + _percent_17g(table)).encode()


def test_spectrum_peak_at_source_frequency():
    f0 = 100.0
    dt = 1e-3
    times = dt * np.arange(1000)
    fid = -0.5j * np.exp(-1j * 2.0 * np.pi * f0 * times)
    trace = ExpectationTrace(times=times, labels=("ip",), values=fid[None, :])
    freqs, amps = spectrum(trace, xi_apo=0.0)
    peak = freqs[np.argmax(amps[0])]
    assert abs(peak - f0) <= freqs[1] - freqs[0]


def _fwhm(freqs, amp):
    half = amp.max() / 2.0
    above = np.nonzero(amp >= half)[0]
    return freqs[above[-1]] - freqs[above[0]]


def test_spectrum_width_grows_with_apodization():
    f0 = 100.0
    dt = 1e-3
    times = dt * np.arange(2000)
    fid = np.exp(-1j * 2.0 * np.pi * f0 * times)
    trace = ExpectationTrace(times=times, labels=("ip",), values=fid[None, :])
    widths = []
    for xi_apo in (20.0, 60.0, 120.0):
        freqs, amps = spectrum(trace, xi_apo=xi_apo)
        widths.append(_fwhm(freqs, amps[0]))
    assert widths[0] < widths[1] < widths[2]


def test_spectrum_negative_rate_sharpens_lines():
    # resolution enhancement: a negative rate is legal while exp(-xi_apo * t) is finite
    times = 1e-3 * np.arange(2000)
    fid = np.exp(-1j * 2.0 * np.pi * 100.0 * times - 30.0 * times)
    trace = ExpectationTrace(times=times, labels=("ip",), values=fid[None, :])
    freqs, plain = spectrum(trace)
    _, sharp = spectrum(trace, xi_apo=-20.0)
    assert np.all(np.isfinite(sharp))
    assert _fwhm(freqs, sharp[0]) < _fwhm(freqs, plain[0])


def test_spectrum_rejects_an_overflowing_rate():
    times = 1e-4 * np.arange(201)
    trace = ExpectationTrace(times=times, labels=("ip",),
                             values=np.ones((1, 201), dtype=complex))
    with pytest.raises(ConfigError, match="xi_apo=-1000000.0 gives a non-finite spectrum"):
        spectrum(trace, xi_apo=-1e6)


def test_spectrum_zero_signal():
    times = 0.1 * np.arange(16)
    trace = ExpectationTrace(times=times, labels=("ip",),
                             values=np.zeros((1, 16), dtype=complex))
    _, amps = spectrum(trace)
    assert np.all(amps == 0.0)


def test_spectrum_requires_uniform_grid():
    # a zero or negative step is uniform too, but has no frequency axis
    for times, message in [([0.0, 0.1, 0.3], "uniform"), ([0.0, 0.0, 0.0], "increasing"),
                           ([0.2, 0.1, 0.0], "increasing")]:
        trace = ExpectationTrace(times=times, labels=("ip",),
                                 values=np.zeros((1, 3), dtype=complex))
        with pytest.raises(ConfigError, match=message):
            spectrum(trace)


#: Metadata keys of a ``run_simulation`` trace: the common ones, then each
#: engine's own.
_COMMON_KEYS = {"engine", "eps", "matvecs", "wall_time_s", "warnings",
                "total_matvecs", "total_wall_time_s", "liouville_dim", "block_dim"}
_ENGINE_KEYS = {
    "krylov": {"m_used_max", "m_used_mean"},
    "dec": {"n_orders"},
    "cheb": {"order"},
    "zte": {"m_used_max", "m_used_mean", "xi", "delta_t", "window_steps",
            "full_dim", "reduced_dim"},
    "oracle": set(),
}


@pytest.mark.parametrize("engine", list(_ENGINE_KEYS))
def test_metadata_matvec_honesty(engine):
    cfg = parse_config(make_config(engine=engine, steps="50"))
    before = matvec_counter.count
    trace = run_simulation(cfg)
    measured = matvec_counter.count - before
    assert trace.metadata["total_matvecs"] == measured
    assert trace.metadata["matvecs"] <= measured
    assert set(trace.metadata) == _COMMON_KEYS | _ENGINE_KEYS[engine]
    assert trace.metadata["engine"] == engine
    if engine == "dec":
        # `ip` alone on its trace block takes the doubled sweep:
        # ceil((n_orders - 1) / 2) products
        assert trace.metadata["matvecs"] == trace.metadata["n_orders"] // 2
    if engine == "zte":
        # the detection window counts towards the engine's own matvecs
        assert trace.metadata["matvecs"] == trace.metadata["total_matvecs"]


def test_dec_wall_time_spans_the_precompute(monkeypatch):
    import time

    precompute = cli.dec_precompute

    def slow_precompute(*args, **kwargs):
        time.sleep(0.05)
        return precompute(*args, **kwargs)

    monkeypatch.setattr(cli, "dec_precompute", slow_precompute)
    meta = run_simulation(parse_config(make_config(steps="50"))).metadata
    assert 0.05 <= meta["wall_time_s"] <= meta["total_wall_time_s"]


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(make_config(j_hz="\n  0 5\n  6 0"))
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_missing_file():
    assert main(["simulate", "--config", "/nonexistent/x.ini"]) == 2


def test_exit_code_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "zte.ini"
    cfg.write_text(
        "[system]\nn = 1\nlarmor_hz = 0\n\n[run]\nengine = zte\nsteps = 10\ndt = 0.1\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_tridiagonal_solver_failure(tmp_path, capsys, failing_stev):
    # a LAPACK failure inside a Krylov step is a numerical failure, not a traceback
    cfg = tmp_path / "krylov.ini"
    cfg.write_text(make_config(engine="krylov", steps="5"))
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_resource_limit(tmp_path, capsys, monkeypatch):
    # a coupled 8-spin chain: the largest sector the `ip` block keeps holds
    # C(8, 4) = 70 states, past a cap of 64; the run stops before any eigensolve
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(spinsys, "SECTOR_CAP", 64)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    chain = "\n" + "\n".join(
        "  " + " ".join("1" if abs(a - b) == 1 else "0" for b in range(8)) for a in range(8)
    )
    cfg = tmp_path / "big.ini"
    cfg.write_text(
        "[system]\nn = 8\nlarmor_hz = 1 2 3 4 5 6 7 8\nj_hz = " + chain + "\n\n"
        "[run]\nengine = oracle\nsteps = 2\ndt = 0.1\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 4
    assert "resource limit: a kept sector of H holds 70 states" in capsys.readouterr().err


@pytest.mark.parametrize("n", [8, 9])
def test_oracle_runs_past_the_dense_liouville_cap(n):
    # blocks of 11440 and 43758 coordinates: the sector line list needs
    # sectors of at most 70 and 126 states, and sums more than one block of lines
    runs = {engine: run_simulation(RunConfig(system=benchmark_spec(n), engine=engine))
            for engine in ("oracle", "dec")}
    exact = runs["oracle"].values
    assert runs["oracle"].metadata["block_dim"] > 4096
    assert np.max(np.abs(runs["dec"].values - exact)) <= 1e-6 * np.max(np.abs(exact))


@pytest.mark.parametrize("engine", ["dec", "cheb"])
def test_exit_code_horizon_past_any_expansion_order(tmp_path, capsys, engine):
    # dt * D = 4.9e22 needs more expansion orders than an array can index
    cfg = tmp_path / "far.ini"
    cfg.write_text(make_config(engine=engine, dt="1e20", steps="1"))
    assert main(["simulate", "--config", str(cfg)]) == 4
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("dt", ["5e-324", "1e-300"])
def test_exit_code_zte_window_past_any_step_count(tmp_path, capsys, dt):
    # the 1/100 s observation window holds infinitely many steps of 5e-324
    # and about 1e298 of 1e-300: more than an integer index can count
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(make_config(n=3, larmor_hz="100 250 400", j_hz="\n  0 5 1\n  5 0 7\n  1 7 0",
                               engine="zte", dt=dt))
    assert main(["simulate", "--config", str(cfg)]) == 4
    assert "resource limit" in capsys.readouterr().err


def test_exit_code_out_of_memory(tmp_path, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 16.0 TiB")

    monkeypatch.setattr(cli, "run_simulation", exhausted)
    cfg = tmp_path / "run.ini"
    cfg.write_text(make_config(steps="5"))
    assert main(["simulate", "--config", str(cfg)]) == 4
    assert "resource limit: Unable to allocate" in capsys.readouterr().err


def test_simulate_writes_fid(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "fid.csv"
    cfg.write_text(make_config(steps="20"))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    trace = read_trace_csv(out)
    assert trace.n_times == 21
    # a run's warnings go to stderr
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--engine", "zte"]) == 0
    assert capsys.readouterr().err.startswith(
        "warning: zero-track elimination has no error guarantee")


def test_dec_sidecar_cli_flow(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(make_config(steps="100"))
    sidecar = tmp_path / "series.decs"
    fid = tmp_path / "fid.csv"

    assert main(["dec-precompute", "--config", str(cfg_path),
                 "--out", str(sidecar)]) == 0
    assert sidecar.read_bytes()[:5] == b"DECS1"
    assert main(["dec-eval", "--series", str(sidecar), "--dt", "0.0001",
                 "--steps", "100", "--out", str(fid)]) == 0

    evaluated = read_trace_csv(fid)
    direct = run_simulation(parse_config(make_config(steps="100")))
    assert np.max(np.abs(evaluated.values - direct.values)) <= 1e-12

    in_process = tmp_path / "in_process.csv"
    write_trace_csv(dec_evaluate_grid(load_series(sidecar), 0.0001 * np.arange(101)),
                    in_process)
    assert fid.read_bytes() == in_process.read_bytes()


def test_spectrum_cli_flow(tmp_path):
    cfg_path = tmp_path / "run.ini"
    fid = tmp_path / "fid.csv"
    spec_out = tmp_path / "spec.csv"
    # one amplitude column, named after its label once there are two
    for observables, columns in [("ip", "amplitude"), ("ip ix", "amplitude_ip,amplitude_ix")]:
        cfg_path.write_text(make_config(engine="oracle", dt="0.001", larmor_hz="100 250",
                                        steps="1000", extra_run=f"observables = {observables}"))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(fid)]) == 0
        assert main(["spectrum", "--fid", str(fid), "--out", str(spec_out)]) == 0
        header, first = spec_out.read_text().splitlines()[:2]
        assert header == f"freq_hz,{columns}"
        assert len(first.split(",")) == 1 + len(columns.split(","))


def test_observable_names_are_stored_in_canonical_form():
    cfg = parse_config(make_config(extra_run="observables = IP:01, iz ,ix:+0"))
    assert cfg.observables == ("ip:1", "iz", "ix:0")


@pytest.mark.parametrize("engine", list(_ENGINE_KEYS))
def test_run_simulation_writes_no_file(monkeypatch, engine):
    def refuse(*args, **kwargs):
        raise AssertionError("a file was written")

    for name in ("write_trace_csv", "write_spectrum_csv", "save_series"):
        monkeypatch.setattr(cli, name, refuse)
    assert run_simulation(parse_config(make_config(engine=engine, steps="20"))).n_times == 21


def test_benchmark_is_deterministic_and_reports_costs(tmp_path, capsys):
    kwargs = dict(spin_counts=[2], engines=["dec", "krylov", "zte", "oracle"], dt=0.1,
                  steps=40, timeout=120.0)
    rows1 = benchmark(**kwargs)
    rows2 = benchmark(**kwargs)
    by_engine = {r.engine: r for r in rows1}
    assert all(r.status == "ok" for r in rows1)
    # dec cost is the doubled sweep's ceil((n_orders - 1) / 2) products,
    # independent of grid
    dec_row = by_engine["dec"]
    assert dec_row.detail.startswith("n_orders=")
    assert dec_row.matvecs == int(dec_row.detail.split("=")[1]) // 2
    # every row is measured against the `oracle` run, which is the oracle row
    assert by_engine["oracle"].max_err == 0.0
    assert all(r.max_err <= 1e-6 for r in rows1)
    # pruning engine reports its reduced size
    assert by_engine["zte"].reduced_dim is not None
    assert by_engine["zte"].reduced_dim < 256
    # numerical columns reproduce run to run (timings exempt)
    for r1, r2 in zip(rows1, rows2):
        assert (r1.engine, r1.matvecs, r1.max_err) == (r2.engine, r2.matvecs, r2.max_err)
    table = capsys.readouterr().out
    assert "engine" in table and "matvecs" in table


def test_run_config_validation():
    spec_cfg = parse_config(make_config()).system
    with pytest.raises(ConfigError, match="dt"):
        RunConfig(system=spec_cfg, dt=0.0)
    with pytest.raises(ConfigError, match="steps"):
        RunConfig(system=spec_cfg, steps=0)
    with pytest.raises(ConfigError, match="eps"):
        RunConfig(system=spec_cfg, eps=2.0)
    for name, value in [("dt", np.nan), ("dt", np.inf), ("eps", np.nan), ("xi", np.nan),
                        ("xi", np.inf)]:
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            RunConfig(system=spec_cfg, **{name: value})


#: Sidecar header edits that leave the file unusable.
_BAD_HEADERS = {
    "header_without_shift": lambda h: h.pop("shift"),
    "non_numeric_tau": lambda h: h.update(tau="soon"),
    "nan_tau_header": lambda h: h.update(tau=float("nan")),
    "nan_half_width_header": lambda h: h.update(half_width=float("nan")),
    "negative_half_width_header": lambda h: h.update(half_width=-1.0),
    "infinite_eps_header": lambda h: h.update(eps=float("inf")),
    "infinite_shift_header": lambda h: h.update(shift=float("inf")),
    "float64_dtype_header": lambda h: h.update(dtype="float64"),
    "header_without_dtype": lambda h: h.pop("dtype"),
    # one label, as in the data, but not a list of strings
    "string_labels_header": lambda h: h.update(labels="p"),
    "non_string_labels_header": lambda h: h.update(labels=[7]),
}

#: Config files whose [run] or [zte] settings are unusable.
_BAD_CONFIGS = {
    "nan_dt_config": make_config(dt="nan"),
    "infinite_dt_config": make_config(dt="inf"),
    "nan_xi_config": make_config(engine="zte") + "\n[zte]\nxi = nan\n",
    "no_observables": make_config(extra_run="observables ="),
    # a colon with no site after it is not the total
    "empty_site_config": make_config(extra_run="observables = ip:"),
    # eps/2 rounds to 0 below the smallest normal double: the stop test never passes
    "tiny_eps_config": make_config(extra_run="eps = 5e-324"),
    # the grid end steps * dt overflows to inf
    "huge_horizon_config": make_config(dt="1e308", steps="10"),
    # a step count past the float range
    "huge_steps_config": make_config(steps="1" + "0" * 400),
    # dt = 1 s is longer than zte's observation window of 1/100 s
    "zte_dt_past_window": make_config(engine="zte", dt="1"),
    # 4**32 overflows a 64-bit index
    "too_many_spins_config": make_config(
        n=32, larmor_hz=" ".join(["100"] * 32),
        j_hz="\n" + "\n".join(["  " + " ".join(["0"] * 32)] * 32)),
    "negative_xi_config": make_config(engine="zte") + "\n[zte]\nxi = -1\n",
    "non_numeric_n_config": make_config(n="two"),
    "no_section_header_config": "n = 2\n",
    "no_system_section_config": "[run]\nsteps = 5\n",
    "larmor_count_config": make_config(larmor_hz="100"),
    "short_j_row_config": make_config(j_hz="\n  0 5\n  5"),
    "nan_coupling_config": make_config(j_hz="\n  0 nan\n  nan 0"),
    # a key or section the reader does not know would leave its setting at
    # the default unseen
    "misspelt_key_config": make_config(extra_run="step = 5"),
    "unknown_section_config": make_config() + "\n[outptu]\nfid = x.csv\n",
    "empty_unknown_section_config": make_config() + "\n[extra]\n",
    "default_key_config": "[DEFAULT]\nengine = krylov\n" + make_config(),
    "m_max_config": make_config(extra_run="m_max = 30"),
    # the FID path is simulate --out, the spectrum the spectrum verb's and
    # the series horizon dec-precompute --tau
    "output_fid_config": make_config() + "\n[output]\nfid = fid.csv\n",
    "output_spectrum_config": make_config() + "\n[output]\nspectrum = spectrum.csv\n",
    "tau_config": make_config(extra_run="tau = 0.4"),
    "xi_apo_config": make_config(extra_run="xi_apo = 30"),
    # one column would be lost, or three would repeat one observable
    "repeated_observable_config": make_config(extra_run="observables = ip ip"),
    "repeated_canonical_observable_config": make_config(extra_run="observables = ip:1 ip:01 IP:1"),
}

#: Trace CSVs whose header ``spectrum`` must refuse: real and imaginary
#: columns swapped, no ``re_``/``im_`` prefixes, two different labels, and
#: times without any observable.
_BAD_FID_HEADERS = {
    "swapped_fid_header": "t,im_ip,re_ip\n0,1,0\n0.1,0,1\n",
    "unprefixed_fid_header": "t,foo,bar\n0,1,0\n0.1,0,1\n",
    "mismatched_fid_header": "t,re_ip,im_ix\n0,1,0\n0.1,0,1\n",
    "unlabelled_fid_header": "t\n0\n0.1\n",
}

#: Trace CSVs with a well-formed header whose values are not finite.
_BAD_FID_VALUES = {
    "nan_value_fid": "t,re_ip,im_ip\n0,1,0\n0.1,nan,1\n",
    "infinite_value_fid": "t,re_ip,im_ip\n0,1,0\n0.1,0,-inf\n",
}

#: A finite trace whose transform's sum overflows at xi_apo = 0.
_HUGE_FID = "t,re_ip,im_ip\n0,1e308,0\n0.1,1e308,0\n"

#: ``dec-precompute --tau`` values that are not finite or fall short of
#: the grid end steps * dt = 0.01.
_TAU_FLAGS = {"nan_tau_flag": "nan", "infinite_tau_flag": "inf", "short_tau_flag": "0.001",
              "negative_tau": "-5", "zero_tau": "0"}

#: The message each case must name, where "config error" alone could come
#: from another check.
_BAD_CASE_MESSAGES = {
    "too_many_spins_config": "spin count 32 lies outside 1..31",
    "benchmark_too_many_spins": "spin count 32 lies outside 1..31",
    "nan_time_fid": "nan.csv: times must be finite",
    "empty_site_config": "bad site index in observable 'ip:'",
    "string_labels_header": "labels must be a list of strings",
    "non_string_labels_header": "labels must be a list of strings",
    "no_labels": "series.decs: 0 labels and",
    "nan_moment": "series.decs: the sidecar holds a non-finite moment",
    "zte_dt_past_window": "exceeds the observation window",
    "negative_xi_config": "[zte] xi must be non-negative",
    "non_numeric_n_config": "bad value for [system] n: 'two'",
    "no_section_header_config": "malformed config",
    "no_system_section_config": "missing required section [system]",
    "larmor_count_config": "[system] larmor_hz lists 1 frequencies for n=2 spins",
    "short_j_row_config": "[system] j_hz row 1 has 1 entries, expected 2",
    "nan_coupling_config": "coupling entries must be finite",
    "misspelt_key_config": "unknown config key [run] step",
    "unknown_section_config": "unknown config section [outptu]",
    "empty_unknown_section_config": "unknown config section [extra]",
    "default_key_config": "unknown config key [DEFAULT] engine",
    "m_max_config": "unknown config key [run] m_max",
    "output_fid_config": "unknown config section [output]",
    "output_spectrum_config": "unknown config section [output]",
    "tau_config": "unknown config key [run] tau",
    "xi_apo_config": "unknown config key [run] xi_apo",
    "repeated_observable_config": "[run] observables names 'ip' more than once",
    "repeated_canonical_observable_config": "[run] observables names 'ip:1' more than once",
    **{case: "--tau=" for case in _TAU_FLAGS},
    "empty_fid": "empty.csv: the trace holds no rows",
    "benchmark_unknown_engine": "unknown engine 'magic' in --engines",
    "one_row_fid": "spectrum needs at least two samples",
    **{case: "not a trace CSV" for case in _BAD_FID_HEADERS},
    **{case: "values.csv: the trace holds a non-finite value" for case in _BAD_FID_VALUES},
    # exp(-xi_apo * t) overflows on the 100-step grid of dt = 1e-4
    "overflowing_xi_apo": "xi_apo=-1000000.0 gives a non-finite spectrum",
    "overflowing_transform": "the spectrum's transform overflows",
}

#: ``qexpect benchmark`` arguments that leave the run unusable.
_BAD_BENCHMARKS = {
    "benchmark_negative_dt": ["--spins", "2", "--engines", "dec,cheb", "--dt", "-1"],
    "benchmark_non_integer_spins": ["--spins", "x", "--steps", "5"],
    "benchmark_no_spins": ["--spins", "", "--steps", "5"],
    "benchmark_no_engines": ["--spins", "2", "--engines", "", "--steps", "5"],
    "benchmark_negative_timeout": ["--spins", "2", "--engines", "dec", "--steps", "5",
                                   "--timeout", "-1"],
    "benchmark_infinite_timeout": ["--spins", "2", "--engines", "dec", "--steps", "5",
                                   "--timeout", "inf"],
    "benchmark_negative_spins": ["--spins", "-1", "--engines", "dec", "--steps", "5"],
    "benchmark_negative_seed": ["--spins", "2", "--engines", "dec", "--steps", "5",
                                "--seed", "-5000"],
    "benchmark_too_many_spins": ["--spins", "32", "--engines", "dec", "--steps", "5"],
    "benchmark_unknown_engine": ["--spins", "2", "--engines", "dec,magic", "--steps", "5"],
}


@pytest.mark.parametrize(
    "case",
    ["bad_magic", "truncated_sidecar", "missing_series", "missing_fid", "malformed_fid", "nan_time_fid",
     "one_row_fid",
     "past_tau", "negative_steps", "zero_orders", "no_labels", "nan_moment", "nan_eval_dt",
     "nan_xi_apo", "overflowing_xi_apo", "overflowing_transform", "empty_fid", *_TAU_FLAGS,
     *_BAD_FID_VALUES,
     *_BAD_FID_HEADERS, *_BAD_BENCHMARKS, *_BAD_HEADERS, *_BAD_CONFIGS],
)
def test_unusable_inputs_exit_with_config_error(tmp_path, capsys, recwarn, case):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(make_config(steps="100"))
    sidecar = tmp_path / "series.decs"
    assert main(["dec-precompute", "--config", str(cfg_path), "--out", str(sidecar)]) == 0
    data = sidecar.read_bytes()
    args = ["dec-eval", "--series", str(sidecar), "--dt", "0.0001", "--steps", "100",
            "--out", str(tmp_path / "fid.csv")]
    if case == "bad_magic":
        sidecar.write_bytes(b"NOTME" + data[5:])
    elif case == "truncated_sidecar":
        sidecar.write_bytes(data[:-7])
    elif case == "missing_series":
        args[2] = str(tmp_path / "absent.decs")
    elif case == "missing_fid":
        args = ["spectrum", "--fid", str(tmp_path / "absent.csv")]
    elif case == "malformed_fid":
        (tmp_path / "bad.csv").write_text("t,re_ip,im_ip\n0,1,oops\n")
        args = ["spectrum", "--fid", str(tmp_path / "bad.csv")]
    elif case == "nan_time_fid":
        (tmp_path / "nan.csv").write_text("t,re_ip,im_ip\n0,1,0\nnan,0,1\n")
        args = ["spectrum", "--fid", str(tmp_path / "nan.csv")]
    elif case == "one_row_fid":
        (tmp_path / "one.csv").write_text("t,re_ip,im_ip\n0,1,0\n")
        args = ["spectrum", "--fid", str(tmp_path / "one.csv")]
    elif case == "past_tau":
        args[6] = "101"  # one step past the stored horizon tau = 100 * dt
    elif case == "negative_steps":
        args[6] = "-1"
    elif case == "nan_eval_dt":
        args[4] = "nan"
    elif case in _TAU_FLAGS:
        args = ["dec-precompute", "--config", str(cfg_path), "--out", str(sidecar),
                "--tau", _TAU_FLAGS[case]]
    elif case == "nan_xi_apo":
        (tmp_path / "ok.csv").write_text("t,re_ip,im_ip\n0,1,0\n0.1,0,1\n")
        args = ["spectrum", "--fid", str(tmp_path / "ok.csv"), "--xi-apo", "nan"]
    elif case == "overflowing_xi_apo":
        assert main(args) == 0
        args = ["spectrum", "--fid", str(tmp_path / "fid.csv"), "--xi-apo=-1e6",
                "--out", str(tmp_path / "spectrum.csv")]
    elif case == "empty_fid":
        (tmp_path / "empty.csv").write_text("t,re_ip,im_ip\n\n# no rows\n")
        args = ["spectrum", "--fid", str(tmp_path / "empty.csv")]
    elif case == "overflowing_transform":
        (tmp_path / "huge.csv").write_text(_HUGE_FID)
        args = ["spectrum", "--fid", str(tmp_path / "huge.csv"),
                "--out", str(tmp_path / "spectrum.csv")]
    elif case in _BAD_FID_VALUES:
        (tmp_path / "values.csv").write_text(_BAD_FID_VALUES[case])
        args = ["spectrum", "--fid", str(tmp_path / "values.csv"),
                "--out", str(tmp_path / "spectrum.csv")]
    elif case in _BAD_FID_HEADERS:
        (tmp_path / "header.csv").write_text(_BAD_FID_HEADERS[case])
        args = ["spectrum", "--fid", str(tmp_path / "header.csv")]
    elif case in _BAD_BENCHMARKS:
        args = ["benchmark", *_BAD_BENCHMARKS[case]]
    elif case in _BAD_CONFIGS:
        cfg_path.write_text(_BAD_CONFIGS[case])
        args = ["simulate", "--config", str(cfg_path)]
    else:
        magic, header, raw = data.split(b"\n", 2)
        header = json.loads(header)
        if case == "zero_orders":
            header["n_orders"], raw = 0, b""
        elif case == "no_labels":
            header["labels"], raw = [], b""
        elif case == "nan_moment":
            raw = np.complex128(complex(np.nan, 0.0)).tobytes() + raw[16:]
        else:
            _BAD_HEADERS[case](header)
        sidecar.write_bytes(b"\n".join([magic, json.dumps(header).encode(), raw]))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert _BAD_CASE_MESSAGES.get(case, "") in err
    assert not [str(w.message) for w in recwarn]
    # a refused run writes no output
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "dec-precompute", "dec-precompute onto a directory",
                                     "dec-eval", "spectrum", "benchmark"])
def test_unwritable_output_exits_with_config_error(tmp_path, capsys, monkeypatch, command):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(make_config(steps="20"))
    sidecar, fid = tmp_path / "series.decs", tmp_path / "fid.csv"
    assert main(["dec-precompute", "--config", str(cfg_path), "--out", str(sidecar)]) == 0
    assert main(["dec-eval", "--series", str(sidecar), "--dt", "0.0001", "--steps", "20",
                 "--out", str(fid)]) == 0
    out = str(tmp_path / "missing_dir" / "out")
    args = {
        "simulate": ["simulate", "--config", str(cfg_path)],
        "dec-precompute": ["dec-precompute", "--config", str(cfg_path)],
        "dec-precompute onto a directory": ["dec-precompute", "--config", str(cfg_path)],
        "dec-eval": ["dec-eval", "--series", str(sidecar), "--dt", "0.0001", "--steps", "20"],
        "spectrum": ["spectrum", "--fid", str(fid)],
        "benchmark": ["benchmark", "--spins", "2", "--engines", "dec", "--steps", "5"],
    }[command]
    if command.endswith("directory"):
        out = str(tmp_path)
    args += ["--out", out]

    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    # simulate, dec-precompute and benchmark check their outputs before any work
    monkeypatch.setattr(cli, "assemble", refuse)
    monkeypatch.setattr(cli, "benchmark", refuse)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output") and out in err


@pytest.mark.parametrize("verb", ["simulate", "dec-eval"])
def test_an_output_the_file_system_refuses_exits_with_config_error(tmp_path, capsys, verb):
    # a name of 300 characters passes the checks made before the run and
    # fails when the file is opened (ENAMETOOLONG), whatever the permissions
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(make_config(steps="20"))
    sidecar = tmp_path / "series.decs"
    assert main(["dec-precompute", "--config", str(cfg_path), "--out", str(sidecar)]) == 0
    args = {"simulate": ["simulate", "--config", str(cfg_path)],
            "dec-eval": ["dec-eval", "--series", str(sidecar), "--dt", "0.0001", "--steps", "20"],
            }[verb]
    capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / ("x" * 300))]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write output: ")
    assert sorted(os.listdir(tmp_path)) == ["run.ini", "series.decs"]


def test_benchmark_writes_its_csv_through_main(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["benchmark", "--spins", "2", "--engines", "dec,krylov", "--steps", "5",
                 "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        assert [len(row) for row in csv.reader(fh)] == [10, 10, 10]
    assert capsys.readouterr().out.endswith(f"benchmark csv written to {out}\n")


@pytest.mark.parametrize("verb", ["simulate", "dec-precompute", "spectrum", "dec-eval"])
def test_an_output_naming_an_input_exits_with_config_error(tmp_path, capsys, verb):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(make_config(steps="20"))
    sidecar, fid = tmp_path / "series.decs", tmp_path / "fid.csv"
    assert main(["dec-precompute", "--config", str(cfg_path), "--out", str(sidecar)]) == 0
    assert main(["dec-eval", "--series", str(sidecar), "--dt", "0.0001", "--steps", "20",
                 "--out", str(fid)]) == 0
    source, args = {
        "simulate": (cfg_path, ["simulate", "--config", str(cfg_path)]),
        "dec-precompute": (cfg_path, ["dec-precompute", "--config", str(cfg_path)]),
        "spectrum": (fid, ["spectrum", "--fid", str(fid)]),
        "dec-eval": (sidecar, ["dec-eval", "--series", str(sidecar), "--dt", "0.0001",
                               "--steps", "20"]),
    }[verb]
    before = source.read_bytes()
    out = str(tmp_path / "." / source.name)  # another spelling of the input
    capsys.readouterr()
    assert main(args + ["--out", out]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write output {out!r}: it is an input of the run\n")
    assert source.read_bytes() == before


@pytest.mark.parametrize("verb", ["spectrum", "dec-eval"])
def test_reading_verbs_check_their_output_before_any_work(tmp_path, capsys, monkeypatch, verb):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("read_trace_csv", "spectrum", "load_series", "dec_evaluate_grid"):
        monkeypatch.setattr(cli, name, refuse)
    (tmp_path / "input").write_text("")
    out = str(tmp_path / "missing_dir" / "out.csv")
    args = {"spectrum": ["spectrum", "--fid", str(tmp_path / "input")],
            "dec-eval": ["dec-eval", "--series", str(tmp_path / "input"), "--dt", "0.0001",
                         "--steps", "20"]}[verb]
    assert main(args + ["--out", out]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write output {out!r}: its directory does not exist\n")


def _refuse_block_csr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Liouvillian CSR was built")

    monkeypatch.setattr(spinsys, "build_liouvillian", refuse)


def test_dec_never_builds_a_liouvillian_csr(tmp_path, monkeypatch):
    # nor does `oracle`, which reads the sectors of H
    _refuse_block_csr(monkeypatch)
    for names, engine in itertools.product((("ip",), ("ip", "ip:0"), ("ix",)), ("dec", "oracle")):
        cfg = RunConfig(system=benchmark_spec(5), engine=engine, dt=0.1, steps=100,
                        observables=names)
        assert run_simulation(cfg).metadata["block_dim"] > 0
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(make_config(steps="100"))
    assert main(["dec-precompute", "--config", str(cfg_path),
                 "--out", str(tmp_path / "series.decs")]) == 0


def test_benchmark_builds_no_block_csr_past_the_oracle_cap(monkeypatch):
    # 9 spins: the `ip` block has 43758 coordinates, past the dense cap of
    # 4096 on the Liouville block; the `oracle` reference reads the sectors of
    # H, so neither it nor the `dec` run needs the CSR, and `dec` gets a max_err
    _refuse_block_csr(monkeypatch)
    rows = benchmark([9], ["dec"], steps=5)
    assert [(row.engine, row.status) for row in rows] == [("dec", "ok")]
    assert rows[0].detail.startswith("n_orders=")
    assert 0.0 < rows[0].max_err <= 1e-6


def test_benchmark_records_a_child_that_dies_as_failed(monkeypatch):
    def dies_on(engine, end=lambda: os._exit(9)):
        def run(cfg):
            if cfg.engine == engine:
                end()
            return real(cfg)
        return run

    real = cli.run_simulation
    monkeypatch.setattr(cli, "run_simulation", dies_on("krylov"))
    rows = benchmark([3], ["dec", "krylov"], steps=10)
    assert [(row.engine, row.status) for row in rows] == [("dec", "ok"), ("krylov", "failed")]
    assert rows[0].max_err is not None
    assert "exit code 9" in rows[1].detail
    # a dead reference leaves every row of its size without a max_err
    monkeypatch.setattr(cli, "run_simulation", dies_on("oracle"))
    rows = benchmark([3], ["dec", "oracle"], steps=10)
    assert [(row.engine, row.status, row.max_err) for row in rows] == [
        ("dec", "ok", None), ("oracle", "failed", None)]
    assert "exit code 9" in rows[1].detail
    # a child that outlives the timeout is a `timeout` row
    monkeypatch.setattr(cli, "run_simulation", dies_on("krylov", end=lambda: time.sleep(60)))
    rows = benchmark([3], ["dec", "krylov"], steps=10, timeout=1.0)
    assert [(row.engine, row.status) for row in rows] == [("dec", "ok"), ("krylov", "timeout")]
    assert rows[0].max_err is not None and rows[1].max_err is None


def test_benchmark_csv_quotes_a_detail_with_commas(tmp_path, monkeypatch):
    def sector_cap(cfg):
        if cfg.engine == "krylov":
            raise ResourceError("a kept sector of H holds 5000 states, past the cap 4096")
        return real(cfg)

    real = cli.run_simulation
    monkeypatch.setattr(cli, "run_simulation", sector_cap)
    rows = benchmark([2], ["dec", "krylov"], steps=5)
    out = tmp_path / "bench.csv"
    cli.write_benchmark_csv(rows, out)
    with open(out, newline="", encoding="utf-8") as fh:
        header, *read = list(csv.reader(fh))
    assert header == ["n_spins", "dim", "engine", "steps", "status", "wall_s", "matvecs",
                      "max_err", "reduced_dim", "detail"]
    assert [len(fields) for fields in read] == [10, 10]
    assert [fields[9] for fields in read] == [row.detail for row in rows]
    assert rows[1].detail == "ResourceError: a kept sector of H holds 5000 states, past the cap 4096"
    for fields, row in zip(read, rows):
        np.testing.assert_equal(float(fields[5]), row.wall_s)  # nan for the failed row
        assert int(fields[6]) == row.matvecs


@pytest.mark.parametrize("engine", ["cheb", "krylov", "zte"])
def test_csr_engines_run_on_the_restricted_full_operator(monkeypatch, engine):
    # the block CSR these engines get, built on first use, gives bitwise the
    # trace of the full Liouvillian restricted to the trace block
    spec, names = benchmark_spec(4), ("ip", "ix")
    cfg = RunConfig(system=spec, engine=engine, dt=0.1, steps=40, observables=names)
    built = run_simulation(cfg)
    h = build_hamiltonian(spec)
    _, w_rows = normalize_observables({name: observable_by_name(name, 4) for name in names},
                                      spec.liouville_dim)
    restricted = build_liouvillian(h).restrict(trace_block(h, initial_state(4), w_rows))
    monkeypatch.setattr(spinsys.TraceSystem, "l_op", property(lambda self: restricted))
    direct = run_simulation(cfg)
    assert np.array_equal(built.values, direct.values)
    assert built.metadata["matvecs"] == direct.metadata["matvecs"]
