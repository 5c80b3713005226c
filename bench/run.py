"""qexpect benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload dec-recurrence --seed 1 --seconds 30 --trace 0

One client in one process sends its next op when the previous one returns.
An op is one user request, timed from outside. The untraced run
(``--trace 0``) prints the end-to-end metrics; the traced run
(``--trace 1``) installs span wrappers around the package's public
functions (see ``spans.py``) and prints the per-layer metrics. Every op is
checked against a reference after the timed loop. The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the environment fingerprint.

The code under test is imported from ``src/`` of the checkout this file
sits in; without it the benchmark exits with status 2 and prints no result.
"""

import os

if __name__ == "__main__":
    # before numpy is imported anywhere: one BLAS thread, so an op is timed
    # as the single-threaded client it is, whatever the core count
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: p90 needs ten samples beyond it; a run keeps going past ``--seconds``
#: until it has this many ops, and stops at the hard cap regardless.
MIN_OPS = 100
HARD_CAP_FACTOR = 4
SETUP_PROBES = 3
COUNTER_OPS = 3
WORKLOADS = ("dec-recurrence", "dec-eval", "steppers")


def _import_program() -> None:
    """Import ``qexpect`` from this checkout's sources, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "qexpect", "__init__.py")):
        print(f"error: no qexpect sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import qexpect

    if os.path.dirname(os.path.dirname(os.path.abspath(qexpect.__file__))) != SRC:
        print(f"error: imported qexpect from {qexpect.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; 'unknown' without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def _timed_op(wl, i, inp, failures):
    """Run op ``i`` on its inputs; return (seconds, output or None if it raised)."""
    t0 = time.perf_counter()
    try:
        out = wl.op(inp)
    except Exception:  # an op failure is a result to count, not a crash
        out = None
        if not failures:
            traceback.print_exc(file=sys.stderr)
        failures.append(i)
    return time.perf_counter() - t0, out


def _referee(wl, records, rtol):
    """Errors of the recorded ops against the reference; count misses."""
    errors = wl.verify(records) if records else []
    missed = sum(1 for e in errors if not e <= rtol)
    worst = max(errors, default=0.0)
    print(f"referee: {len(errors)} ops checked, worst relative error {worst:.3e} "
          f"(tolerance {rtol:g}), {missed} missed")
    return missed


def plain_run(wl, seconds, rtol, probe_cmd):
    failures, times, records = [], [], []
    points = 0
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_FACTOR * seconds or (elapsed >= seconds and i >= MIN_OPS):
            break
        inp = wl.inputs(i)
        dt, out = _timed_op(wl, i, inp, failures)
        times.append(dt)
        if out is not None:
            points += out.n_times
            records.append(wl.record(inp, out))
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(failures) + _referee(wl, records, rtol)
    setup = [setup_probe(probe_cmd) for _ in range(SETUP_PROBES)]
    print(f"ops: {len(times)} timed, p50 from {len(times)} samples, "
          f"p90 with {len(times) - int(0.9 * len(times))} beyond it; "
          f"setup probes {', '.join(f'{s:.3f}' for s in setup)} s")
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "fid_s_p50": _metric(statistics.median(times), "s"),
        "fid_s_p90": _metric(_p90(times), "s"),
        "points_per_s": _metric(points / sum(times), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "ok_frac": _metric((len(times) - failed) / len(times), "frac"),
    }
    return {"correct": failed == 0, "attempted": len(times), "failed": failed,
            "metrics": metrics}


def setup_probe(cmd) -> float:
    """Seconds from launching a fresh process to the point of its first timed op."""
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    ready = float(proc.stdout.strip().splitlines()[-1])
    return ready - t0


def counter_pass(wl):
    tracer = spans.Tracer()
    with tracer.installed():
        for i in range(COUNTER_OPS):
            with tracer.op(i):
                wl.op(wl.inputs(i))
    return spans.counters(tracer)


def traced_run(wl, seconds, rtol):
    """Counters from two identical traced passes, then paired timed ops.

    Each op index runs once untraced and once traced, alternating which goes
    first, so ``trace.overhead_frac`` compares the same inputs.
    """
    first, second = counter_pass(wl), counter_pass(wl)
    diffs = spans.compare_counters(first, second)
    for line in diffs:
        print(f"counter mismatch between identical passes: {line}", file=sys.stderr)

    tracer = spans.Tracer()
    failures, records = [], []
    plain_t, traced_t = [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_FACTOR * seconds or (elapsed >= seconds and 2 * i >= MIN_OPS):
            break
        inp = wl.inputs(i)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed(), tracer.op(i):
                    dt, out = _timed_op(wl, i, inp, failures)
                traced_t.append(dt)
            else:
                dt, out = _timed_op(wl, i, inp, failures)
                plain_t.append(dt)
            if out is not None:
                records.append(wl.record(inp, out))
        i += 1
    failed = len(failures) + _referee(wl, records, rtol)

    by_name, by_layer, op_mean = spans.layer_times(tracer)
    print(f"layer shares: mean self time per traced op over {tracer.ops} ops "
          f"(op mean {op_mean:.4f} s)")
    for layer, secs in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {secs:10.5f} s  {100.0 * secs / op_mean:6.2f} %")
    print(f"  {'total':<10} {sum(by_layer.values()):10.5f} s")

    metrics = {name: _metric(value, spans.COUNTER_UNITS.get(name, "count"))
               for name, value in first.items()}
    for name, parts in spans.TIME_METRICS.items():
        metrics[name] = _metric(sum(by_name.get(p, 0.0) for p in parts), "s")
    p50_plain, p50_traced = statistics.median(plain_t), statistics.median(traced_t)
    metrics["trace.overhead_frac"] = _metric((p50_traced - p50_plain) / p50_plain, "frac")
    attempted = len(plain_t) + len(traced_t)
    return {"correct": failed == 0 and not diffs, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the monotonic clock and exit")
    parser.add_argument("--counters", action="store_true",
                        help="print the exact counters of a traced pass and exit")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.op(wl.inputs(0))  # untimed warm-up
        if args.setup_probe:
            print(f"{time.monotonic():.9f}")
            return 0
        if args.counters:
            print(json.dumps(counter_pass(wl), sort_keys=True))
            return 0
        if args.trace:
            result = traced_run(wl, args.seconds, workloads.RTOL)
        else:
            probe_cmd = [sys.executable, os.path.abspath(__file__),
                         "--workload", args.workload, "--seed", str(args.seed),
                         "--setup-probe"]
            result = plain_run(wl, args.seconds, workloads.RTOL, probe_cmd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(WORK)
    print(json.dumps({"env": fingerprint()}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
