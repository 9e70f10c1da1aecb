#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench.exe and eprocd with dune, runs one workload, and passes
its report through.  The last line of stdout is the result object with
the keys correct, attempted, failed and metrics; it is printed only if it
parses and names exactly the metrics BENCHMARK.json lists for the mode.
Exits non-zero, without a result, when the checkout cannot be built, the
run fails or overruns, or the result is malformed.  Scratch files go to
_build/perfbench and are removed by the benchmark when it ends.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cover-1m", "trials-10k")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
TARGETS = ("perfbench/perfbench.exe", "bin/eprocd.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def expected_metrics(trace):
    """The metric names BENCHMARK.json lists for the mode, in its order."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def build():
    missing = [p for p in ("dune-project", "lib", "bin/eprocd.ml", "perfbench/dune")
               if not os.path.exists(p)]
    if missing:
        fail("not the root of a source checkout (missing %s)" % ", ".join(missing))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # Keep every build product inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet"] + list(TARGETS)
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, start_new_session=True)
    except subprocess.TimeoutExpired:
        fail("build did not finish within %d s" % BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail("build failed (%s)" % " ".join(cmd))


def check_result(line, expected):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(res["correct"], bool):
        return "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool) or res[k] < 0:
            return k + " is not a whole number"
    if res["attempted"] < 1:
        return "no operation was attempted"
    metrics = res["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != expected:
        got = set(metrics) if isinstance(metrics, dict) else set()
        return "metric set differs: missing %s, extra %s" % (
            sorted(expected - got), sorted(got - expected))
    for name, m in metrics.items():
        if (not isinstance(m, dict) or set(m) != {"value", "unit"}
                or not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool)
                or not isinstance(m["unit"], str)):
            return "metric %s is not {value, unit}" % name
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    expected = expected_metrics(args.trace)
    scratch = os.path.join("_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join("_build", "default", "perfbench", "perfbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--eprocd", os.path.join("_build", "default", "bin", "eprocd.exe"),
           "--dir", scratch, "--metrics", ",".join(expected)]
    # Own process group, so an overrun kills the benchmark and its eprocd.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    lines = []
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        lines = out.splitlines()
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if not lines:
        fail("the run printed nothing (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    err = check_result(lines[-1], set(expected))
    if err is not None:
        print(lines[-1], file=sys.stderr)
        fail("malformed result: " + err)
    if proc.returncode not in (0, 1):
        fail("the run exited with code %d" % proc.returncode)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
