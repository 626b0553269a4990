#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve|plan|bulk \
        --seed N --seconds S --trace 0|1

The build (Release, libraries only) goes to .bench_build/perfbench and is
incremental after the first run. Build output goes to stderr, so the last
line of stdout is the benchmark's result object. A failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"), *sys.argv[1:],
               "--workdir", os.path.relpath(RUN_DIR, ROOT)]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
