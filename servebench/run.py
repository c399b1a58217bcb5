#!/usr/bin/env python3
"""Build and run the serving benchmark.

Run from the root of a checkout:

    python3 servebench/run.py                       # all three workloads
    python3 servebench/run.py --workload wire-rule --seed 3 --seconds 10 --trace 0

The benchmark is compiled from the checkout's sources by its own CMake
package (servebench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; rebuilding is a no-op when nothing changed. Build output
goes to standard error, so the last line of standard output is the result:
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["wire-rule", "direct-ml", "direct-rule"]
# One run measures for --seconds plus setup and checks; kill it well inside
# the three minutes a run may take.
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    here = os.path.join(root, "servebench")
    if not os.path.isfile(os.path.join(root, "src", "serve", "group.h")):
        sys.exit("servebench: no library sources under %s/src; run from the "
                 "root of a checkout" % root)
    binary = os.path.join(build_dir, "servebench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return binary


def run_one(binary, tmpdir, workload, seed, seconds, trace):
    """Run one workload; return (exit code, last stdout line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmpdir", tmpdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: %s did not finish in %d s"
                 % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(root, os.path.join(build_dir, "servebench"))
    tmpdir = os.path.join(build_dir, "tmp")

    if args.workload != "all":
        code, last = run_one(binary, tmpdir, args.workload, args.seed,
                             args.seconds, args.trace)
        print(last)
        return code

    # All workloads: print each result, then one combined object whose
    # metric names are prefixed with the workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, last = run_one(binary, tmpdir, workload, args.seed,
                             args.seconds, args.trace)
        print(last)
        worst = max(worst, code)
        result = json.loads(last) if last.startswith("{") else None
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print("%-12s attempted %d failed %d" % (workload, result["attempted"],
                                                 result["failed"]))
        for name, metric in result["metrics"].items():
            print("%-12s %-34s %16.6f %s" % (workload, name, metric["value"],
                                              metric["unit"]))
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
