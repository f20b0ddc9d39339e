#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one benchmark run.

    python3 perfbench/run.py --workload serve-gct --seed 1 --seconds 25 --trace 0

Run from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds. The driver and the library it links are built
with CMake into .bench_build/ (or $CARGO_TARGET_DIR when set); the stand-in
edge lists, snapshots and span traces also live there. The last line of
stdout is the run's JSON result (see perfbench/README.md). Exits non-zero,
without a result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def build(build_dir):
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        driver = build(build_dir)
        subprocess.run([driver, "--prepare", "--dir", build_dir], check=True)
        run = subprocess.run([driver, "--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace),
                              "--dir", build_dir])
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
