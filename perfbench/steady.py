#!/usr/bin/env python3
"""Steadiness of the perfbench metrics: the data the BENCHMARK.json bounds
are set from.

    python3 perfbench/steady.py [--determinism]

Runs each workload of BENCHMARK.json ten times, with seeds 100..109, for
BENCHMARK.json's run_seconds each, and prints, per metric, the median, the
first and third quartiles (statistics.quantiles(n=4)) and the spread
(Q3 - Q1) / median.  With --determinism it instead checks that two runs of
seed 100 report identical simulated metrics, that a traced run reports the
same simulated results (the binary checks that itself), and that seed 101
changes them.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
SEEDS = range(100, 110)
SIM_METRICS = ["sim_goodput_mbps", "sim_p50_us", "sim_p99_us"]


def run(workload, seed, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s" % " ".join(cmd))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("incorrect result: %s" % " ".join(cmd))
    return result


def steadiness():
    for workload in WORKLOADS:
        values = {}
        for seed in SEEDS:
            for name, m in run(workload, seed)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs, seeds %d..%d)" % (workload, len(SEEDS), SEEDS[0],
                                              SEEDS[-1]))
        print("  %-40s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                              "spread"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print("  %-40s %14.6g %14.6g %14.6g %8.4f" %
                  (name, med, q1, q3, (q3 - q1) / med))
        sys.stdout.flush()
    return 0


def determinism():
    ok = True
    seed = SEEDS[0]
    for workload in WORKLOADS:
        a = run(workload, seed)["metrics"]
        b = run(workload, seed)["metrics"]
        c = run(workload, seed + 1)["metrics"]
        run(workload, seed, trace=1)  # checks itself
        same = all(a[m]["value"] == b[m]["value"] for m in SIM_METRICS)
        moved = any(a[m]["value"] != c[m]["value"] for m in SIM_METRICS)
        print("%-12s same seed identical: %s  other seed differs: %s  "
              "traced run identical: checked by the binary" %
              (workload, same, moved))
        ok = ok and same and moved
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--determinism"]):
        sys.exit("usage: steady.py [--determinism]")
    sys.exit(determinism() if sys.argv[1:] else steadiness())
