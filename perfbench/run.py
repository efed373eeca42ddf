#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The driver (perfbench/src, linked against the repository's `usca`
library) is configured and built in `.bench_build/` at the repository
root on first use; later runs only re-check the build.  Build output goes
to stderr, so the driver's stdout, whose last line is the JSON result,
is passed through untouched.  Every other argument is handed to the
driver (see perfbench/README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "usca_perfbench")


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "usca_perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_root = os.path.join(ROOT, ".bench_build", "tmp")
    return subprocess.run([DRIVER, *sys.argv[1:], "--work-root", work_root]
                          ).returncode


if __name__ == "__main__":
    sys.exit(main())
