"""Exact-counter check: fresh counters must repeat, and match the committed ones.

Usage, from the root of a source checkout::

    python3 bench/check_counters.py             # every workload, seed 0
    python3 bench/check_counters.py --update    # rewrite the committed file

For each workload, two fresh processes run the same traced counter pass with
the same seed; any difference in the counters named by
``spans.EXACT_COUNTERS`` fails the check (exit status 1). The first set is
also compared with ``counters_seed0.json``, the counters of the commit that
last wrote it: a refactor that must leave the work done unchanged has to
pass this comparison, while a change that alters the work reports its new
counts here and says so.
"""

import argparse
import json
import os
import subprocess
import sys

import spans
from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "counters_seed0.json")


def fresh_counters(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--counters"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare benchmark counters exactly")
    parser.add_argument("--update", action="store_true",
                        help=f"write the fresh counters to {os.path.basename(BASELINE)}")
    args = parser.parse_args(argv)

    committed = {}
    if os.path.isfile(BASELINE):
        with open(BASELINE, encoding="utf-8") as fh:
            committed = json.load(fh)
    ok = True
    for workload in WORKLOADS:
        first, second = fresh_counters(workload, 0), fresh_counters(workload, 0)
        for line in spans.compare_counters(first, second):
            ok = False
            print(f"{workload}: two fresh runs differ: {line}")
        if args.update:
            committed[workload] = first
        elif workload not in committed:
            ok = False
            print(f"{workload}: no committed counters")
        else:
            for line in spans.compare_counters(committed[workload], first):
                ok = False
                print(f"{workload}: committed != fresh: {line}")
    if args.update and ok:
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(committed, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("counters: identical" if ok else "counters: MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
