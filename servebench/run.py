#!/usr/bin/env python3
"""Builds the serving benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload serial --seed 1 --seconds 40 --trace 0
        [--corpus-seed 42]

Workloads: serial, routed-open, fresh-zipf (see servebench/README.md).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(spans go to .bench_build/traces/). --seed seeds the traffic and
--corpus-seed the served corpus. Everything the run builds or writes
stays under .bench_build/ in the repository root. The last line of
standard output is the JSON result; a run that cannot be carried out
exits non-zero without one.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "servebench")
# Every workload servebench runs. BENCHMARK.json lists the ones the
# benchmark measures; fresh-zipf is left out of it as unsteady (README.md).
WORKLOADS = ["serial", "routed-open", "fresh-zipf"]


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (until a configure has succeeded) and builds the load
    generator and the worker; a no-op after the first run."""
    steps = [["cmake", "--build", BUILD, "-j", "4",
              "--target", "servebench", "wwt_shardd"]]
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--corpus-seed", type=int, default=42)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}")
        return 2
    if not build():
        return 1

    cmd = [os.path.join(BUILD, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--corpus-seed", str(args.corpus_seed),
           "--workdir", os.path.join(OUT, "runs"),
           "--shardd", os.path.join(BUILD, "wwt_shardd")]
    if args.trace == "1":
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the run; its workers die
        # with it.
        log("run timed out")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        log(f"run failed with exit code {done.returncode}")
        return 1
    result = json.loads(lines[-1])
    group = "per_layer" if args.trace == "1" else "end_to_end"
    want = [m["name"] for m in spec[group]]
    if sorted(result["metrics"]) != sorted(want):
        sys.stderr.write(done.stdout)
        log(f"reported metrics differ from BENCHMARK.json {group}")
        return 1
    print(done.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
