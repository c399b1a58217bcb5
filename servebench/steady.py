#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs servebench/run.py k times per workload, each round with a new seed and
with the workload order alternating between rounds, then prints for every
metric the median, the quartiles (statistics.quantiles, n=4) and the spread
(interquartile distance as a share of the median), next to the bound that
BENCHMARK.json fixes. Also prints the host's steal share over the whole set,
read from /proc/stat.

Run from the root of a checkout:

    python3 servebench/steady.py --runs 10
    python3 servebench/steady.py --runs 5 --workloads direct-rule --trace 1
    python3 servebench/steady.py --runs 10 --trace both   # + tracing overhead

--out FILE writes every run's result as JSON for later comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def steal_jiffies():
    with open("/proc/stat") as stat:
        fields = [float(v) for v in stat.readline().split()[1:9]]
    return fields[7], sum(fields)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        sys.exit("run failed (%d): %s\n%s" % (proc.returncode, " ".join(cmd),
                                              proc.stdout))
    return json.loads(last)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default="",
                        help="comma list; default: all in BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=["0", "1", "both"])
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]

    results = {(w, t): [] for w in workloads for t in traces}
    steal0 = steal_jiffies()
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            for t in traces:
                r = run(w, args.seed + i, seconds, t)
                results[(w, t)].append(r)
                print("run %2d %-12s trace=%d seed=%d correct=%s failed=%d/%d"
                      % (i, w, t, args.seed + i, r["correct"], r["failed"],
                         r["attempted"]), file=sys.stderr)
    steal1 = steal_jiffies()
    steal = (steal1[0] - steal0[0]) / max(1.0, steal1[1] - steal0[1])

    print("host steal over the set: %.2f%% of all CPU time" % (100 * steal))
    print("%-12s %-34s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for (w, t), runs in results.items():
        failed_share = {r["failed"] / r["attempted"] for r in runs}
        print("%-12s trace=%d  runs %d  failed share %s  all correct %s" % (
            w, t, len(runs), sorted(failed_share),
            all(r["correct"] for r in runs)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(name)
            print("%-12s %-34s %14.6g %14.6g %14.6g %7.2f%% %6s" % (
                w, name, med, q1, q3, 100 * spread,
                "" if bound is None else "%g" % bound))
        if t == 1 and (w, 0) in results:
            base = statistics.median(r["metrics"]["cpu_us_per_cycle"]["value"]
                                     for r in results[(w, 0)])
            traced = statistics.median(
                r["metrics"]["traced.cpu_us_per_cycle"]["value"] for r in runs)
            print("%-12s tracing overhead on cpu_us_per_cycle: %+.2f%%" % (
                w, 100 * (traced - base) / base))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"steal": steal, "seconds": seconds,
                       "results": {"%s/%d" % k: v
                                   for k, v in results.items()}}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
