#!/usr/bin/env python3
"""Steadiness self-test for the ppg benchmark.

    python3 perfbench/steadiness.py [--runs 10]
        [--workloads dense_1e8,igt_sweep,serve_mixed]

Runs each workload in two sets of --runs runs of BENCHMARK.json's
run_seconds, each run on its own seed (seeds 1, 2, ... in order), and
reports for every end-to-end metric the median, the quartiles and the
spread (q3 - q1) / median, flagging any spread above the metric's bound. It compares the
second set's median with the first's, as a regression gate would. Finally
it runs each workload once on seed 7919, which is held out from tuning,
and flags a value off the first set's median by more than the bound.
Exits 1 if anything is flagged or a run fails its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
HOLDOUT_SEED = 7919


def run_once(workload, seed, seconds):
    """One untraced run; returns its parsed last line."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("steadiness: %s seed %d failed" % (workload, seed))
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    flagged = []

    for workload in workloads:
        medians = []
        for s in range(SETS):
            seeds = [1 + s * args.runs + i
                     for i in range(args.runs)]
            results = [run_once(workload, seed, seconds) for seed in seeds]
            for seed, r in zip(seeds, results):
                if not r["correct"] or r["failed"] != 0:
                    flagged.append("%s seed %d: correct=%s failed=%d" % (
                        workload, seed, r["correct"], r["failed"]))
            print("\n%s, set %d, seeds %d..%d, %g s per run" % (
                workload, s + 1, seeds[0], seeds[-1], seconds))
            print("%-16s %14s %14s %14s %8s %6s" % (
                "metric", "q1", "median", "q3", "spread", "bound"))
            set_medians = {}
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                set_medians[m["name"]] = q2
                flag = spread > m["bound"]
                if flag:
                    flagged.append("%s %s spread %.3f > bound %.3f" % (
                        workload, m["name"], spread, m["bound"]))
                print("%-16s %14.6g %14.6g %14.6g %8.3f %6.2f%s" % (
                    m["name"], q1, q2, q3, spread, m["bound"],
                    "  FLAG" if flag else ""))
            medians.append(set_medians)
        print("median drift, set 2 against set 1 (worse is positive):")
        for m in metrics:
            a, b = medians[0][m["name"]], medians[1][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = worse > m["bound"]
            if flag:
                flagged.append("%s %s second median worse by %.3f" % (
                    workload, m["name"], worse))
            print("  %-16s %+8.3f%s" % (m["name"], worse,
                                        "  FLAG" if flag else ""))
        held = run_once(workload, HOLDOUT_SEED, seconds)
        print("held-out seed %d:" % HOLDOUT_SEED)
        for m in metrics:
            value = held["metrics"][m["name"]]["value"]
            ratio = value / medians[0][m["name"]]
            flag = abs(ratio - 1) > m["bound"]
            if flag:
                flagged.append("%s %s held-out seed off the median by %.3f"
                               % (workload, m["name"], ratio - 1))
            print("  %-16s %14.6g  (%.3f x median)%s" % (
                m["name"], value, ratio, "  FLAG" if flag else ""))
        if not held["correct"]:
            flagged.append("%s held-out seed failed its checks" % workload)

    print("\n" + ("\n".join("FLAG: " + f for f in flagged) if flagged
                  else "steady: every spread within its bound"))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
