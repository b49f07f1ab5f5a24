"""Checks that the traced work counters repeat exactly.

Usage (from the root of a checkout):

    python3 perfbench/selfcheck.py [--seed N] [WORKLOAD ...]

Runs ``run.py --trace 1`` twice per workload (all four by default) with the
same seed and compares every counter: the per-layer metrics counted in
calls, elements or spans, and the yields computed from them.  Prints each
workload's tracing overhead (traced / untraced pass time) and exits 1 when
a counter differs or a run is not correct.  run.py itself checks, on every
traced run, that the layers' self times add up to the traced pass time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

COUNTED_RATIOS = ("hgsenum.closure_yield", "isoaut.iso_yield")


def traced_run(workload, seed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=str(HERE.parent), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", help="default: all of %s" % sorted(WORKLOADS))
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error("unknown workloads %s" % unknown)
    ok = True
    for workload in args.workloads or list(WORKLOADS):
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        counters = sorted(
            name for name, entry in first["metrics"].items()
            if entry["unit"] == "count" or name in COUNTED_RATIOS
        )
        differing = [
            name for name in counters
            if first["metrics"][name]["value"] != second["metrics"][name]["value"]
        ]
        correct = first["correct"] and second["correct"]
        ok = ok and correct and not differing
        overheads = [run["metrics"]["trace.overhead"]["value"] for run in (first, second)]
        print("%-14s correct %-5s %d counters, %d differ %s; trace overhead %.3f, %.3f"
              % (workload, correct, len(counters), len(differing), differing, *overheads))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
