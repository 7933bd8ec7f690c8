#!/usr/bin/env python3
"""Builds kondo_bench from source and runs one benchmark workload.

Usage (from the repository root):

    python3 kondo_bench/run.py --workload campaign_3d --seed 1 \
        --seconds 10 --trace 0

Workloads: campaign_3d, debloat_2d, serve_mixed, sharded_fleet.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced pass. The last line of standard output is the JSON result.

The build goes to $CARGO_TARGET_DIR (relative to the repository root) or
.bench_build; scratch files go to .bench_work and are removed at exit.
Build output is sent to standard error so standard output stays the
benchmark's own.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("kondo_bench: library sources (src/) not found next "
                         "to %s\n" % BENCH_DIR)
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "kondo_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.stderr.write("kondo_bench: build step failed: %s\n"
                             % " ".join(step))
            return None
    return os.path.join(out, "kondo_bench")


def main(argv):
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
