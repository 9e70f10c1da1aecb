#!/usr/bin/env python3
"""Steadiness report: run one workload N times and summarise each metric.

    python3 perfbench/steady.py --workload W [--runs 10] [--seed0 1] [--seconds 20]

Run from the root of a checkout.  Run i uses seed seed0 + i; every run is
untraced, and its metrics go to stderr as it ends.  For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4),
min and max, the spread (q3 - q1) / median, the bound from BENCHMARK.json
and whether the spread stays within the bound and within a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady: seed %d failed with exit code %d" % (seed, proc.returncode))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit("steady: seed %d reported failures: %s" % (seed, lines[-1]))
    return res, wall


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        res, wall = run_once(args.workload, seed, seconds)
        runs.append({"wall_s": wall,
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
        print("seed %d: %.1f s, %d operations; %s" % (
            seed, wall, res["attempted"],
            " ".join("%s=%.4g" % (k, v) for k, v in runs[-1]["metrics"].items())),
              file=sys.stderr, flush=True)

    names = list(runs[0]["metrics"])
    print("%s, %d runs, seeds %d..%d, %d s each" % (
        args.workload, args.runs, args.seed0, args.seed0 + args.runs - 1, seconds))
    print("%-40s %14s %14s %14s %14s %14s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "min", "max", "spread", "bound", "verdict"))
    for name in names:
        s = summarise([r["metrics"][name] for r in runs])
        bound = bounds[name]
        verdict = ""
        if name != "setup_s":
            verdict = ("steady" if s["spread"] < bound / 3
                       else "within bound" if s["spread"] <= bound else "TOO NOISY")
        print("%-40s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f %6s  %s" % (
            name, s["median"], s["q1"], s["q3"], s["min"], s["max"], s["spread"],
            "%.2f" % bound, verdict))
    print("wall per run: median %.1f s, max %.1f s" % (
        statistics.median(r["wall_s"] for r in runs), max(r["wall_s"] for r in runs)))


if __name__ == "__main__":
    main()
