#!/usr/bin/env python3
"""Build and run the whole-stack benchmark.

    python3 perfbench/run.py --workload convnet --seed 7 --seconds 40 --trace 0

Run from the root of a checkout.  The first run configures and builds
the library and the benchmark from source (CMake, Release-with-debug-info)
under the build directory -- $CARGO_TARGET_DIR if set, else .bench_build
-- and later runs reuse that build.  Build output goes to standard error;
standard output carries the benchmark's report, whose last line is the
JSON result.  Traced runs (--trace 1) also write their spans under the
build directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Hard cap on one measured run: --seconds of measurement plus set-up,
# reference outputs and the drain of the last probe.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline.hh")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append([cmake, "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["convnet", "fleet"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
