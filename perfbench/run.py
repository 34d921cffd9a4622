#!/usr/bin/env python3
"""Build the benchmark from source, then run it in place of this process.

Usage, from the repository root:

    python3 perfbench/run.py --workload ao --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the simulator library from src/) with
CMake into .bench_build/perfbench, then execs the binary with the same
arguments. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. --trace 1 runs write their spans to
.bench_build/spans/. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/ not found beside perfbench/; run from a "
                 "full checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    os.makedirs(SPANS, exist_ok=True)
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:] + ["--spans-dir", SPANS])


if __name__ == "__main__":
    main()
