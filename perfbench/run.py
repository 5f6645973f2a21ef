#!/usr/bin/env python3
"""Two-clock benchmark of the vecfd toolkit (see perfbench/NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 25 --trace 0

Builds perfbench (the library sources of the checkout plus the program in
perfbench/src) into .bench_build/perfbench, runs one workload, checks that
its result line names exactly the metrics BENCHMARK.json declares, and
prints it as the last line of standard output.  Exit status is the
program's: 0 when every correctness check passed, non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build() -> None:
    """Configure once, then an incremental build on every run."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "campaign.h")):
        fail("no vecfd sources under ./src — run from the root of a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def declared(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    trace = args.trace == "1"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(lines[-1] if lines else "")
        fail(f"perfbench printed no result line (exit {proc.returncode})")

    want = declared(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(f"perfbench: result metrics {sorted(got)} do not match "
              f"BENCHMARK.json {sorted(want)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
