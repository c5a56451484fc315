#!/usr/bin/env python3
"""Builds the wall-clock streaming benchmark from source and runs it.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload yahoo_drain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test --seed 1 --seconds 4

The engine library and the benchmark driver are compiled (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; checkpoints and trace files go under the same directory. Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("yahoo_drain", "user_counts_drain")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/CMakeLists.txt) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="attribution and reference-check self-test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", work_dir]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
