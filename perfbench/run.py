#!/usr/bin/env python3
"""Build and run the m-LIGHT repo benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload range_scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (CMake, into .bench_build/perfbench under the root) from
the sources in src/, then runs one workload.  Build output goes to stderr;
stdout carries the benchmark's report and ends with one JSON line over
the metrics BENCHMARK.json names (end_to_end with --trace 0, per_layer
with --trace 1).  Exits non-zero, printing no result, when the sources or
the build are missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ingest_large_ring", "range_scan", "hotspot_rw")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "mlight_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "mlight" / "index.h").is_file():
        log(f"no m-LIGHT sources under {ROOT / 'src'}")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr)
    return done.returncode == 0 and BINARY.is_file()


def metric_keys(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[section]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one of %s, or all" %
                        ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        log("build failed")
        return 2
    if args.self_test:
        return run([str(BINARY), "--self-test"])
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status, run([
            str(BINARY), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--keys", ",".join(metric_keys(args.trace))]))
    return status


def run(cmd):
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
