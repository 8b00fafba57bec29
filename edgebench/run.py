#!/usr/bin/env python3
"""Build the edge-tree benchmark from this checkout's sources and run it.

    python3 edgebench/run.py --workload testbed_bulk --seed 1 --seconds 20 --trace 0

Run from the root of the checkout. The first call configures and builds
`.bench_build/` (a Release build of the library plus the benchmark
binary); later calls rebuild incrementally. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. The exit code
is the binary's: 0 only when every correctness check passed. A failed
build exits 3 and prints no result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "edgebench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "edgebench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("edgebench: build failed", file=sys.stderr)
        return 3
    out_dir = os.path.join(ROOT, ".bench_out")
    return subprocess.run([BINARY, *sys.argv[1:], "--out-dir", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
