#!/usr/bin/env python3
"""Builds and runs the serving benchmark from the root of a checkout.

    python3 servebench/run.py --workload map_heavy --seed 1 --seconds 10 --trace 0

Builds the wwt library and the servebench binary from source into
.bench_build (Release; configured once, then incremental), runs one
workload, and passes the binary's output through: human-readable metric
lines, then one JSON object as the last line of standard output. Exits
non-zero, without a result line, when the checkout holds no wwt sources
to build, when the build fails, or when the run fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def configured_build_type(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.strip().split("=", 1)[1]
    return None


def build(root, bench_dir):
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if configured_build_type(build_dir) != BUILD_TYPE:
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "servebench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"no {needed} next to {os.path.basename(bench_dir)}/: "
                 "run from the root of a wwt checkout")

    try:
        binary = build(root, bench_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--scratch", BUILD_DIR]
    try:
        result = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout.decode("utf-8", errors="replace"))
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
