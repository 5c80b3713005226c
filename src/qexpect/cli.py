"""Command-line front end: ingest problems, run engines, post-process.

Verbs:

* ``simulate``       run one engine on a configured spin system, write a FID CSV
* ``spectrum``       apodise a FID CSV and Fourier transform it
* ``benchmark``      cost/accuracy comparison across engines and system sizes
* ``dec-precompute`` persist a direct-expectation series sidecar
* ``dec-eval``       evaluate a stored sidecar on a time grid

Config files are sectioned key-value text (INI). Frequencies are given in
Hz and converted to angular frequencies on ingestion; times are in seconds.

Exit codes: 0 success, 2 configuration error (an output file that cannot
be written included: a missing directory, a path that is a directory, or
one that names an input of the run is refused before any work), 3
numerical failure, 4 resource limit (the oracle's sector cap, or out of
memory) or timeout.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import multiprocessing
import os
import platform
import sys
from dataclasses import astuple, dataclass, fields, replace

import numpy as np
import scipy

from . import __version__
from .chebyshev import cheb_step_propagate
from .dec import _phase_sum, dec_evaluate_grid, dec_precompute, load_series, save_series
from .errors import ConfigError, NumericalError, ResourceError
from .krylov import krylov_propagate
from .spinsys import SpinSystemSpec, assemble, observable_name
from .trace import DEFAULT_EPS, EPS_MIN, ExpectationTrace, RunRecord
from .zte import DEFAULT_XI, zte_propagate, zte_window

ENGINES = ("dec", "cheb", "krylov", "zte", "oracle")

_FMT = "{:.17g}"  # round-trip safe for IEEE doubles


@dataclass
class RunConfig:
    """Validated simulation request.

    Its field defaults are the defaults of every run: of a config file that
    leaves a key out, of the CLI flags and of :func:`benchmark`. ``tau`` is
    the series horizon: ``None`` means ``steps * dt``, and a value set must
    reach at least that far. ``observables`` must name at least one, and is
    stored in canonical form (:func:`qexpect.spinsys.observable_name`): a
    name unknown or with a bad site, or one that two entries share once
    canonical (``ip ip``, ``ip:1 IP:01``), raises :class:`ConfigError`. The
    Krylov subspace cap is no field: every run reads the constant
    :data:`qexpect.krylov.M_MAX`.
    """

    system: SpinSystemSpec
    engine: str = "dec"
    dt: float = 0.1
    steps: int = 1000
    eps: float = DEFAULT_EPS
    tau: float | None = None
    xi: float = DEFAULT_XI
    xi_apo: float = 0.0
    observables: tuple[str, ...] = ("ip",)
    fid_path: str | None = None
    spectrum_path: str | None = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigError(f"[run] engine: unknown engine {self.engine!r}, "
                              f"expected one of {ENGINES}")
        for section, name in (("run", "dt"), ("run", "eps"), ("run", "tau"),
                              ("zte", "xi"), ("run", "xi_apo")):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"[{section}] {name} must be finite, got {value}")
        if self.dt <= 0:
            raise ConfigError("[run] dt must be positive")
        if self.steps < 1:
            raise ConfigError("[run] steps must be at least 1")
        try:
            end = self.steps * self.dt
        except OverflowError:  # a step count past the float range
            end = math.inf
        if not math.isfinite(end):
            raise ConfigError(f"[run] the grid end steps*dt = {self.steps}*{self.dt} is not finite")
        if not EPS_MIN <= self.eps < 1.0:
            raise ConfigError(f"[run] eps must lie in [{EPS_MIN}, 1)")
        if self.tau is not None and self.tau < end:
            raise ConfigError(f"[run] tau={self.tau} is shorter than the grid end steps*dt={end}")
        if self.xi < 0:
            raise ConfigError("[zte] xi must be non-negative")
        if not self.observables:
            raise ConfigError("[run] observables must name at least one observable")
        self.observables = tuple(observable_name(name, self.system.n) for name in self.observables)
        for k, name in enumerate(self.observables):
            if name in self.observables[:k]:
                raise ConfigError(f"[run] observables names {name!r} more than once")

    @property
    def horizon(self) -> float:
        return self.tau if self.tau is not None else self.steps * self.dt


def _get(parser: configparser.ConfigParser, section: str, key: str, cast):
    if not parser.has_option(section, key):
        raise ConfigError(f"missing required key [{section}] {key}")
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


#: Optional config keys: (section, key) -> (RunConfig field, parser). A key
#: the file leaves out keeps the field's RunConfig default.
_RUN_KEYS = {
    ("run", "engine"): ("engine", lambda raw: raw.strip().lower()),
    ("run", "dt"): ("dt", float),
    ("run", "steps"): ("steps", int),
    ("run", "eps"): ("eps", float),
    ("run", "tau"): ("tau", float),
    ("run", "xi_apo"): ("xi_apo", float),
    ("run", "observables"): ("observables", lambda raw: tuple(raw.replace(",", " ").split())),
    ("zte", "xi"): ("xi", float),
    ("output", "fid"): ("fid_path", lambda raw: raw or None),
    ("output", "spectrum"): ("spectrum_path", lambda raw: raw or None),
}


def parse_config(text: str) -> RunConfig:
    """Parse the sectioned key-value config format into a RunConfig.

    Only the ``[system]`` keys and those of :data:`_RUN_KEYS` are read; any
    other section (an empty one included), any other key and any
    ``[DEFAULT]`` key raise :class:`ConfigError`, naming the first one, so a
    misspelt setting cannot fall back to its default unseen. Keys are
    case-insensitive, section names are not.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    known = {("system", "n"), ("system", "larmor_hz"), ("system", "j_hz"), *_RUN_KEYS}
    for key in parser.defaults():  # it would reach every section
        raise ConfigError(f"unknown config key [{parser.default_section}] {key}")
    for section in parser.sections():
        if section not in {known_section for known_section, _ in known}:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if (section, key) not in known:
                raise ConfigError(f"unknown config key [{section}] {key}")
    if not parser.has_section("system"):
        raise ConfigError("missing required section [system]")

    n = _get(parser, "system", "n", int)
    larmor = _get(parser, "system", "larmor_hz", _float_list)
    if len(larmor) != n:
        raise ConfigError(
            f"[system] larmor_hz lists {len(larmor)} frequencies for n={n} spins"
        )
    omega0 = 2.0 * np.pi * np.asarray(larmor)

    j_hz = np.zeros((n, n))
    if parser.has_option("system", "j_hz"):
        rows = [r for r in parser.get("system", "j_hz").splitlines() if r.strip()]
        if len(rows) != n:
            raise ConfigError(f"[system] j_hz has {len(rows)} rows, expected {n}")
        for i, row in enumerate(rows):
            vals = _float_list(row)
            if len(vals) != n:
                raise ConfigError(
                    f"[system] j_hz row {i} has {len(vals)} entries, expected {n}"
                )
            j_hz[i] = vals
    j_coupling = 2.0 * np.pi * j_hz

    try:
        spec = SpinSystemSpec(n=n, omega0=omega0, j_coupling=j_coupling)
    except ConfigError as exc:
        raise ConfigError(f"[system] {exc}") from exc

    return RunConfig(system=spec, **{
        field: _get(parser, section, key, cast)
        for (section, key), (field, cast) in _RUN_KEYS.items()
        if parser.has_option(section, key)
    })


def run_simulation(cfg: RunConfig) -> ExpectationTrace:
    """Dispatch to the selected engine and return the sampled expectations.

    Every engine runs on the trace block of :func:`qexpect.spinsys.assemble`.
    ``dec`` and ``cheb`` rescale by the block's exact spectral interval, read
    off H's sectors (:meth:`qexpect.spinsys.TraceSystem.spectral_interval`).
    ``oracle`` sums the block's exact line list, read off the same sectors
    (:meth:`qexpect.spinsys.TraceSystem.line_list`), and ``dec`` sweeps the
    block's sector operator; the other engines get its CSR. Each engine is
    one call. :func:`qexpect.zte.zte_propagate` observes over one period of
    the slowest Larmor frequency (:func:`qexpect.zte.zte_window`) as the
    start of its run, and refuses a ``dt`` longer than that window with
    :class:`ConfigError`.
    The output paths are checked (:func:`_check_outputs`) before any work.
    """
    _check_outputs(cfg.fid_path, cfg.spectrum_path)
    run = RunRecord(cfg.engine)
    system = assemble(cfg.system, cfg.observables)
    rho0, observables = system.rho0, system.observables
    times = cfg.dt * np.arange(cfg.steps + 1)

    if cfg.engine == "oracle":
        trace = RunRecord("oracle", eps=0.0).close(times, tuple(observables),
                                                   _phase_sum(*system.line_list(), times))
    elif cfg.engine == "dec":
        series_run = RunRecord("dec")
        series = dec_precompute(system.sector_op, rho0, observables, tau=cfg.horizon,
                                eps=cfg.eps, scaling=system.spectral_interval())
        trace = dec_evaluate_grid(series, times)
        matvecs, seconds = series_run.cost()
        trace.metadata.update(matvecs=matvecs, wall_time_s=seconds)
    elif cfg.engine == "cheb":
        trace = cheb_step_propagate(system.l_op, system.spectral_interval(), rho0, cfg.dt,
                                    cfg.steps, observables, eps=cfg.eps)
    elif cfg.engine == "krylov":
        trace = krylov_propagate(system.l_op, rho0, cfg.dt, cfg.steps, observables,
                                 eps=cfg.eps)
    elif cfg.engine == "zte":
        trace = zte_propagate(system.l_op, rho0, cfg.dt, cfg.steps, zte_window(cfg.system),
                              observables, xi=cfg.xi, eps=cfg.eps)
    else:  # pragma: no cover - guarded by RunConfig validation
        raise ConfigError(f"unknown engine {cfg.engine!r}")

    total_matvecs, total_seconds = run.cost()
    trace.metadata.update(total_matvecs=total_matvecs, total_wall_time_s=total_seconds,
                          liouville_dim=cfg.system.liouville_dim, block_dim=system.block_dim)
    if cfg.spectrum_path:  # before any file is written: a failed spectrum leaves none
        freqs, amps = spectrum(trace, xi_apo=cfg.xi_apo)
    if cfg.fid_path:
        write_trace_csv(trace, cfg.fid_path)
    if cfg.spectrum_path:
        write_spectrum_csv(freqs, amps, trace.labels, cfg.spectrum_path)
    return trace


# -- trace / spectrum files ---------------------------------------------


def _check_outputs(*paths, inputs=()) -> None:
    """Raise :class:`ConfigError` for an output path that is a directory or
    whose directory does not exist, so a run cannot end on a file it cannot
    write, for an output that resolves to one of the ``inputs``, so a run
    cannot overwrite what it reads, and for two paths that resolve to one
    file, so one output cannot overwrite another. ``None`` is no output.
    Other write failures still raise ``OSError`` when the file is opened."""
    seen = set()
    read = {os.path.realpath(path) for path in inputs}
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise ConfigError(f"cannot write output {path!r}: it is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write output {path!r}: its directory does not exist")
        real = os.path.realpath(path)
        if real in read:
            raise ConfigError(f"cannot write output {path!r}: it is an input of the run")
        if real in seen:
            raise ConfigError(f"cannot write output {path!r}: another output names that file")
        seen.add(real)


def _pow10_table():
    """Rows ``hi``, the halves of ``hi`` by Dekker's split, and ``lo``, with
    ``hi + lo = 10**k`` to about 2**-106 for ``k`` in ``[-206, 238]``: the
    scales of every value the array path of :func:`_format_csv` takes. An
    int/int true division rounds correctly, so each ``hi`` and ``lo`` is the
    double nearest its exact rational."""
    rows = []
    for k in range(-206, 239):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(rows).T
    big = hi * _SPLIT
    head = big - (big - hi)
    return np.stack([hi, head, hi - head, lo])


def _field_patterns():
    """Per ``%.17g`` layout and digit count ``nd``, the indices into a value's
    26 source characters (17 digits, ``-0.e``, the exponent's sign and three
    digits, the separator) that spell its field: row ``layout * 17 + nd - 1``,
    layouts 0-20 fixed notation for exponents -4 to 16, 21 and 22 scientific
    with two and three exponent digits. Each row opens with the minus sign,
    which a positive value's field skips."""
    rows = []
    for layout in range(23):
        e = layout - 4
        for nd in range(1, 18):
            if layout > 20:
                body = [0, *([19, *range(1, nd)] if nd > 1 else []), 20, 21,
                        *range(44 - layout, 25)]
            elif e < 0:
                body = [18, 19, *[18] * (-e - 1), *range(nd)]
            else:
                body = [*range(e + 1), *([19, *range(e + 1, nd)] if nd > e + 1 else [])]
            rows.append(bytes([17, *body, 25]))
    lengths = np.array([len(row) for row in rows], dtype=np.int32)
    rows = b"".join(row.ljust(_WIDTH, b"\0") for row in rows)
    return np.frombuffer(rows, dtype=np.uint8).reshape(-1, _WIDTH), lengths


_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two halves of 26 bits
_WIDTH = 25  # the longest field, -2.2250738585072014e-308, and its separator
#: values per call of _format_csv, whose temporaries take about 220 bytes a
#: value: a block's stay in cache, where a whole table's would not
_CSV_BLOCK = 8192
_P10 = _pow10_table()
_FIELDS, _FIELD_LENGTHS = _field_patterns()
#: the characters of 0000-9999, one column each, and the place of the last
#: nonzero digit (1-4; -32 for 0000, below any group's start)
_DIGITS4 = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")
_LAST4 = ((_DIGITS4 != ord("0")) * np.arange(1, 5, dtype=np.int32)[:, None]).max(axis=0)
_LAST4[0] = -32
#: row ``positive * (_WIDTH + 1) + length``: the characters of a field
#: written, from the second if the value is positive (no minus sign)
_SPANS = ((np.arange(_WIDTH) >= np.arange(2)[:, None, None])
          & (np.arange(_WIDTH) < np.arange(_WIDTH + 1)[:, None])).reshape(-1, _WIDTH)


def _scaled(a, e):
    """``floor(a * 10**(16 - e))`` as int64, and the fraction left over.

    The product is a double-double by Dekker's two-product, so the fraction
    is off by less than 1e-13."""
    hi, head, tail, lo = np.take(_P10, 222 - e, axis=1)
    p = a * hi
    big = a * _SPLIT
    a_head = big - (big - a)
    a_tail = a - a_head
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    whole = np.floor(p)
    rest = (p - whole) + (err + a * lo)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _format_csv(table) -> str:
    """The rows of a 2-d float table as CSV lines: value for value the text of
    ``'%.17g' % value``, each row ended by a newline.

    Every value in [1e-220, 1e220], and zero, is formatted by array
    arithmetic: ``e = floor(log10|x|)``, corrected until ``|x| * 10**(16-e)``
    lies in [1e16, 1e17), is rounded to 17 digits, which are laid out as
    ``%g`` does. Values outside that range, non-finite values and those
    whose rounding is within 1e-6 of a tie go through ``'%.17g' % value``.
    """
    x = np.asarray(table, dtype=np.float64)
    n_cols = x.shape[1]
    x = x.ravel()
    n = x.size
    ax = np.abs(x)
    exact = (ax >= 1e-220) & (ax <= 1e220)
    a = np.where(exact, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.int32)
    whole, frac = _scaled(a, e)
    for _ in range(2):
        # a fraction within 1e-9 of 1 is the next integer: without that, an
        # exact 1e16 computed a hair below it would move e back and forth
        lead = whole + (frac > 1 - 1e-9)
        shift = (lead >= 10 ** 17).astype(np.int32) - (lead < 10 ** 16)
        redo = np.flatnonzero(shift)
        if not redo.size:
            break
        e[redo] += shift[redo]
        whole[redo], frac[redo] = _scaled(a[redo], e[redo])
    whole += frac > 0.5
    top = whole == 10 ** 17
    whole[top] = 10 ** 16
    e += top
    exact &= (np.abs(frac - 0.5) >= 1e-6) & (whole >= 10 ** 16) & (whole < 10 ** 17)
    whole[~exact] = 0  # zero's digits (its e is 0); the per-value path overwrites the rest
    exact |= ax == 0

    # the source characters, one row each: 17 digits in 4-digit groups after
    # the first, then "-0.e", the exponent's sign and digits, the separator
    src = np.empty((26, n), dtype=np.uint8)
    nd = np.ones(n, dtype=np.int32)
    for k in (13, 9, 5, 1):
        whole, group = np.divmod(whole, 10 ** 4)
        np.take(_DIGITS4, group, axis=1, out=src[k : k + 4])
        np.maximum(nd, k + np.take(_LAST4, group), out=nd)
    src[0] = whole + ord("0")
    src[17:21] = np.frombuffer(b"-0.e", dtype=np.uint8)[:, None]
    src[21] = np.where(e < 0, ord("-"), ord("+"))
    np.take(_DIGITS4[1:], np.abs(e), axis=1, out=src[22:25])
    src[25] = ord(",")
    src[25, n_cols - 1 :: n_cols] = ord("\n")

    layout = np.where((e >= -4) & (e <= 16), e + 4, np.where(np.abs(e) < 100, 21, 22))
    row = layout * 17 + nd - 1
    index = np.take(_FIELDS.astype(np.intp) * n, row, axis=0)
    index += np.arange(n)[:, None]
    fields = src.ravel().take(index)
    del index  # the largest temporary, eight bytes a character
    length = np.take(_FIELD_LENGTHS, row)
    positive = ~np.signbit(x)
    slow = np.flatnonzero(~exact)
    if slow.size:  # each spelt out by '%' and its separator, from the first character
        texts = [b"%.17g%c" % pair for pair in zip(x[slow].tolist(), src[25, slow].tolist())]
        spelt = b"".join(text.ljust(_WIDTH, b"\0") for text in texts)
        fields[slow] = np.frombuffer(spelt, dtype=np.uint8).reshape(-1, _WIDTH)
        length[slow] = [len(text) for text in texts]
        positive[slow] = False
    written = np.take(_SPANS, positive * (_WIDTH + 1) + length, axis=0)
    return fields[written].tobytes().decode("ascii")


def _write_csv(path, header, columns) -> None:
    """Write a header line and one row per entry of the equal-length ``columns``.

    Every value is written at 17 significant digits, round-trip safe for
    IEEE doubles: the bytes of ``'%.17g'``, by :func:`_format_csv`, about
    ``_CSV_BLOCK`` values at a time.
    """
    table = np.column_stack(columns)
    rows = max(1, _CSV_BLOCK // table.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, table.shape[0], rows):
            fh.write(_format_csv(table[lo : lo + rows]))


def write_trace_csv(trace: ExpectationTrace, path) -> None:
    """Write ``t,re_<label>,im_<label>,...`` rows at 17 significant digits."""
    header, columns = ["t"], [trace.times]
    for label, v in zip(trace.labels, trace.values):
        header += [f"re_{label}", f"im_{label}"]
        columns += [v.real, v.imag]
    _write_csv(path, header, columns)


def read_trace_csv(path) -> ExpectationTrace:
    """Read a file written by :func:`write_trace_csv`.

    The header must be ``t`` followed by at least one
    ``re_<label>,im_<label>`` pair whose labels match, with one data column
    per header field, at least one row must follow it, and every value must
    be finite; anything else raises :class:`ConfigError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            # loadtxt skips blank and comment-only lines; an empty list would warn
            rows = [line for line in fh if line.split("#", 1)[0].strip()]
        data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, len(header)))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    labels = tuple(col[3:] for col in header[1::2])
    if (header[0] != "t" or not labels or data.shape[1] != len(header)
            or header[1::2] != [f"re_{label}" for label in labels]
            or header[2::2] != [f"im_{label}" for label in labels]):
        raise ConfigError(f"{path}: not a trace CSV (header {header!r})")
    if not rows:
        raise ConfigError(f"{path}: the trace holds no rows")
    if not np.all(np.isfinite(data[:, 1:])):
        raise ConfigError(f"{path}: the trace holds a non-finite value")
    values = data[:, 1::2] + 1j * data[:, 2::2]
    try:
        return ExpectationTrace(times=data[:, 0], labels=labels, values=values.T)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def spectrum(trace: ExpectationTrace, xi_apo: float = 0.0):
    """Apodised discrete spectrum of the sampled signal.

    Multiplies by ``exp(-xi_apo * t)`` (smooths the delta-like resonances
    into finite-width lines), then takes the unnormalised transform
    ``S_k = sum_n f(t_n) exp(+2*pi*i*k*n/N)``; the positive-rotation kernel
    puts a signal at angular frequency ``+omega`` into the bin nearest
    ``omega / 2*pi``. Frequency axis is ``f_k = k / (N * dt)`` in cycles per
    time unit (Hz for seconds). Requires a uniform grid of increasing times
    and a finite ``xi_apo``. A negative ``xi_apo`` (resolution enhancement)
    is legal, but one whose growth ``exp(-xi_apo * t)`` overflows over the
    grid raises :class:`ConfigError`, as does a transform whose sum
    overflows.
    """
    if not math.isfinite(xi_apo):
        raise ConfigError(f"xi_apo must be finite, got {xi_apo}")
    dts = np.diff(trace.times)
    if dts.size == 0:
        raise ConfigError("spectrum needs at least two samples")
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise ConfigError("spectrum requires a uniform time grid")
    if not dt > 0:
        raise ConfigError(f"spectrum requires increasing times, got a grid step of {dt}")
    n = trace.n_times
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        apod = np.exp(-xi_apo * trace.times)
        amps = np.abs(np.fft.ifft(trace.values * apod, axis=1) * n)
    if not np.all(np.isfinite(apod)):
        raise ConfigError(f"xi_apo={xi_apo} gives a non-finite spectrum: exp(-xi_apo*t) overflows")
    if not np.all(np.isfinite(amps)):
        raise ConfigError("the spectrum's transform overflows: the trace's values are too large")
    freqs = np.arange(n) / (n * dt)
    return freqs, amps


def write_spectrum_csv(freqs, amps, labels, path) -> None:
    amps = np.atleast_2d(amps)
    if len(labels) == 1:
        header = ["freq_hz", "amplitude"]
    else:
        header = ["freq_hz"] + [f"amplitude_{l}" for l in labels]
    _write_csv(path, header, [freqs, *amps])


# -- benchmark harness ----------------------------------------------------


def benchmark_spec(n_spins: int, seed: int = 0) -> SpinSystemSpec:
    """Deterministic weakly coupled test system of the requested size.

    Angular Larmor frequencies of order one and short-range couplings, so
    every engine runs in its intended regime at dt ~ 0.1.
    """
    rng = np.random.default_rng(1000 * n_spins + seed)
    omega0 = rng.uniform(0.5, 2.5, size=n_spins)
    j = np.zeros((n_spins, n_spins))
    for a in range(n_spins):
        for b in range(a + 1, min(a + 3, n_spins)):
            j[a, b] = j[b, a] = rng.uniform(0.02, 0.2)
    return SpinSystemSpec(n=n_spins, omega0=omega0, j_coupling=j)


@dataclass
class BenchmarkRow:
    n_spins: int
    dim: int
    engine: str
    steps: int
    status: str = "ok"
    wall_s: float = float("nan")
    matvecs: int = -1
    max_err: float | None = None
    reduced_dim: int | None = None
    detail: str = ""


def _bench_child(conn, cfg: RunConfig):
    try:
        trace = run_simulation(cfg)
        conn.send(("ok", trace.times, trace.values, trace.metadata))
    except Exception as exc:  # report, do not crash the harness
        conn.send(("error", f"{type(exc).__name__}: {exc}", None, None))
    finally:
        conn.close()


def _run_benchmark_job(cfg: RunConfig, timeout):
    """``run_simulation(cfg)`` in a forked child: its payload, or None on a timeout.

    A child that ends without sending one reports an error with its exit code.
    """
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_bench_child, args=(child, cfg))
    proc.start()
    child.close()
    payload = None
    if parent.poll(timeout):
        try:
            payload = parent.recv()
        except EOFError:  # the child closed the pipe by ending
            proc.join()
            payload = ("error", f"the run ended with exit code {proc.exitcode} and no result",
                       None, None)
    proc.join(timeout=0.5)
    if proc.is_alive():
        proc.terminate()
        proc.join()
    parent.close()
    return payload


def benchmark(
    spin_counts,
    engines,
    dt: float = RunConfig.dt,
    steps: int = RunConfig.steps,
    eps: float = RunConfig.eps,
    xi: float = RunConfig.xi,
    timeout: float = 300.0,
    seed: int = 0,
):
    """Cost comparison across engines and sizes.

    For each (size, engine) pair: wall time, matvec count, max error of the
    first observable against the reference, and the reduced dimension for
    the pruning engine. The reference of each size is an ``oracle`` run
    with the same settings, run like every engine; when it fails or times
    out, no row of that size gets a ``max_err``. An ``oracle`` row is that
    run, so its own ``max_err`` is 0. The run settings default to
    :class:`RunConfig`'s, the series horizon is ``steps * dt``, and the
    settings are validated by :class:`RunConfig` before any run starts, as
    are ``timeout`` (positive and finite), ``seed`` (non-negative) and the
    spin counts (1 to 31, through every system's :class:`SpinSystemSpec`),
    so unusable settings raise :class:`ConfigError`. Runs happen in a child
    process under ``timeout``, so a stuck engine is recorded as timed out
    and a child that dies as failed, rather than hanging or crashing the
    table. Timings are single threaded; numerical columns are deterministic.
    The table is printed to standard output.
    """
    if not (timeout > 0 and math.isfinite(timeout)):
        raise ConfigError(f"benchmark timeout must be positive and finite, got {timeout}")
    if seed < 0:
        raise ConfigError(f"benchmark seed must be non-negative, got {seed}")
    if any(n_spins < 1 for n_spins in spin_counts):
        raise ConfigError(f"benchmark spin counts must be at least 1, got {list(spin_counts)}")
    rows = []
    # every system first, so that an unusable spin count fails before any run
    for spec in [benchmark_spec(n_spins, seed=seed) for n_spins in spin_counts]:
        configs = [RunConfig(system=spec, engine=engine, dt=dt, steps=steps, eps=eps, xi=xi)
                   for engine in ("oracle", *engines)]
        n_spins, dim = spec.n, spec.liouville_dim
        reference = _run_benchmark_job(configs[0], timeout)
        for cfg in configs[1:]:
            row = BenchmarkRow(n_spins=n_spins, dim=dim, engine=cfg.engine, steps=steps)
            payload = reference if cfg.engine == "oracle" else _run_benchmark_job(cfg, timeout)
            if payload is None:
                row.status = "timeout"
            elif payload[0] == "error":
                row.status = "failed"
                row.detail = payload[1]
            else:
                _, times, values, meta = payload
                row.wall_s = meta.get("total_wall_time_s", float("nan"))
                row.matvecs = meta.get("matvecs", -1)
                row.reduced_dim = meta.get("reduced_dim")
                bits = []
                if "n_orders" in meta:
                    bits.append(f"n_orders={meta['n_orders']}")
                if "m_used_max" in meta:
                    bits.append(f"m_used={meta['m_used_max']}")
                if "window_steps" in meta:
                    bits.append(f"window_steps={meta['window_steps']}")
                row.detail = " ".join(bits)
                if reference is not None and reference[0] == "ok":
                    row.max_err = float(np.max(np.abs(values[0] - reference[2][0])))
            rows.append(row)
    _print_benchmark(rows, dt, steps, eps)
    return rows


def _print_benchmark(rows, dt, steps, eps) -> None:
    print(f"# qexpect {__version__} benchmark")
    print(f"# python {platform.python_version()} numpy {np.__version__} "
          f"scipy {scipy.__version__} on {platform.platform()}")
    print(f"# dt={dt} steps={steps} eps={eps}; times are wall-clock seconds "
          "on this machine and are not comparable across environments")
    print(f"{'spins':>5} {'dim':>7} {'engine':>7} {'status':>8} "
          f"{'wall_s':>10} {'matvecs':>9} {'max_err':>10} {'reduced':>8}  detail")
    for r in rows:
        err = f"{r.max_err:.2e}" if r.max_err is not None else "-"
        red = str(r.reduced_dim) if r.reduced_dim is not None else "-"
        wall = f"{r.wall_s:.3f}" if np.isfinite(r.wall_s) else "-"
        print(f"{r.n_spins:>5} {r.dim:>7} {r.engine:>7} {r.status:>8} "
              f"{wall:>10} {r.matvecs:>9} {err:>10} {red:>8}  {r.detail}")


def write_benchmark_csv(rows, path) -> None:
    """Write one row per :class:`BenchmarkRow`, its fields in order under a
    header of their names.

    Floats are written at 17 significant digits and ``None`` as an empty
    field; a field holding a comma or a quote, such as an error ``detail``,
    is quoted.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([field.name for field in fields(BenchmarkRow)])
        out.writerows([_FMT.format(v) if isinstance(v, float) else v for v in astuple(r)]
                      for r in rows)


# -- argument parsing ------------------------------------------------------


def _load_config(path, overrides) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return replace(cfg, **{key: value for key, value in overrides.items() if value is not None})


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, {
        "engine": args.engine, "eps": args.eps, "xi": args.xi, "tau": args.tau,
        "fid_path": args.out,
    })
    _check_outputs(cfg.fid_path, cfg.spectrum_path, inputs=[args.config])
    trace = run_simulation(cfg)
    meta = trace.metadata
    print(f"engine={meta['engine']} dim={meta['liouville_dim']} block={meta['block_dim']} "
          f"points={trace.n_times} matvecs={meta.get('matvecs')} "
          f"wall_s={meta['total_wall_time_s']:.3f}")
    for warning in meta.get("warnings", []):
        print(f"warning: {warning}", file=sys.stderr)
    if cfg.fid_path:
        print(f"fid written to {cfg.fid_path}")
    return 0


def _cmd_spectrum(args) -> int:
    out = args.out or "spectrum.csv"
    _check_outputs(out, inputs=[args.fid])
    trace = read_trace_csv(args.fid)
    freqs, amps = spectrum(trace, xi_apo=args.xi_apo)
    write_spectrum_csv(freqs, amps, trace.labels, out)
    print(f"spectrum ({len(freqs)} bins) written to {out}")
    return 0


def _cmd_benchmark(args) -> int:
    try:
        spins = [int(tok) for tok in args.spins.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"--spins must list whole numbers, got {args.spins!r}") from exc
    engines = args.engines.replace(",", " ").split()
    if not spins or not engines:
        raise ConfigError("--spins and --engines must each list at least one entry")
    for engine in engines:
        if engine not in ENGINES:
            raise ConfigError(f"unknown engine {engine!r} in --engines")
    _check_outputs(args.out)
    rows = benchmark(spins, engines, dt=args.dt, steps=args.steps, eps=args.eps,
                     xi=args.xi, timeout=args.timeout, seed=args.seed)
    if args.out:
        write_benchmark_csv(rows, args.out)
        print(f"benchmark csv written to {args.out}")
    return 0


def _cmd_dec_precompute(args) -> int:
    cfg = _load_config(args.config, {"eps": args.eps, "tau": args.tau})
    _check_outputs(args.out, inputs=[args.config])
    system = assemble(cfg.system, cfg.observables)
    series = dec_precompute(system.sector_op, system.rho0, system.observables,
                            tau=cfg.horizon, eps=cfg.eps, scaling=system.spectral_interval())
    save_series(series, args.out)
    print(f"series with {series.n_orders} orders (tau={series.tau}) "
          f"written to {args.out}")
    return 0


def _cmd_dec_eval(args) -> int:
    if args.steps < 0:
        raise ConfigError(f"--steps must be non-negative, got {args.steps}")
    if not math.isfinite(args.dt):
        raise ConfigError(f"--dt must be finite, got {args.dt}")
    out = args.out or "fid.csv"
    _check_outputs(out, inputs=[args.series])
    series = load_series(args.series)
    times = args.dt * np.arange(args.steps + 1)
    trace = dec_evaluate_grid(series, times)
    write_trace_csv(trace, out)
    print(f"evaluated {trace.n_times} points (zero matvecs) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qexpect",
        description="Expectation-value dynamics for spin systems via sparse "
                    "propagators and direct series evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"qexpect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one engine, write the FID")
    sim.add_argument("--config", required=True)
    sim.add_argument("--engine", choices=ENGINES)
    sim.add_argument("--eps", type=float)
    sim.add_argument("--xi", type=float, help="pruning threshold (zte engine)")
    sim.add_argument("--tau", type=float, help="series horizon (dec engine)")
    sim.add_argument("--out", help="FID csv path (overrides [output] fid)")
    sim.set_defaults(func=_cmd_simulate)

    spec = sub.add_parser("spectrum", help="Fourier transform a FID csv")
    spec.add_argument("--fid", required=True, help="trace csv to transform")
    spec.add_argument("--xi-apo", type=float, default=0.0,
                      help="apodization rate applied before the transform")
    spec.add_argument("--out")
    spec.set_defaults(func=_cmd_spectrum)

    bench = sub.add_parser("benchmark", help="engine cost comparison table")
    bench.add_argument("--spins", default="3,4,5")
    bench.add_argument("--engines", default="dec,cheb,krylov")
    bench.add_argument("--dt", type=float, default=RunConfig.dt)
    bench.add_argument("--steps", type=int, default=RunConfig.steps)
    bench.add_argument("--eps", type=float, default=RunConfig.eps)
    bench.add_argument("--xi", type=float, default=RunConfig.xi)
    bench.add_argument("--timeout", type=float, default=300.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", help="also write machine-readable csv here")
    bench.set_defaults(func=_cmd_benchmark)

    pre = sub.add_parser("dec-precompute", help="store a series sidecar")
    pre.add_argument("--config", required=True)
    pre.add_argument("--tau", type=float)
    pre.add_argument("--eps", type=float)
    pre.add_argument("--out", required=True)
    pre.set_defaults(func=_cmd_dec_precompute)

    ev = sub.add_parser("dec-eval", help="evaluate a stored sidecar on a grid")
    ev.add_argument("--series", required=True)
    ev.add_argument("--dt", type=float, required=True)
    ev.add_argument("--steps", type=int, required=True)
    ev.add_argument("--out")
    ev.set_defaults(func=_cmd_dec_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # readers raise ConfigError: this is an output left unwritten
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ResourceError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
