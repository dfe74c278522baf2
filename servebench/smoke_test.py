#!/usr/bin/env python3
"""Tiny-scale smoke of every workload, untraced and traced.

Usage: smoke_test.py SERVEBENCH WWT_SHARDD

Each run must exit 0, pass its own correctness checks, report exactly the
metrics BENCHMARK.json names (with their units), and leave no wwt_shardd
process and no file in its work directory behind.
"""

import json
import os
import subprocess
import sys
import tempfile

from run import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def live_processes_of(binary):
    """Pids whose executable is `binary`."""
    target = os.path.realpath(binary)
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if os.readlink(f"/proc/{entry}/exe") == target:
                pids.append(int(entry))
        except OSError:
            pass
    return pids


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    servebench, shardd = sys.argv[1], sys.argv[2]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
                cmd = [servebench, "--workload", workload, "--seed", "7",
                       "--seconds", "2", "--trace", trace, "--scale", "0.05",
                       "--workdir", work, "--shardd", shardd]
                done = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=300)
                if done.returncode != 0:
                    failures.append(f"{label}: exit {done.returncode}: "
                                    f"{done.stderr.strip()}")
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{label}: incorrect run:\n{done.stdout}")
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    failures.append(f"{label}: metrics {got} != {want}")
                left = os.listdir(work)
                if left:
                    failures.append(f"{label}: left files behind: {left}")
            orphans = live_processes_of(shardd)
            if orphans:
                failures.append(f"{label}: wwt_shardd still running: {orphans}")
    for f in failures:
        print("FAIL", f)
    print("smoke:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
