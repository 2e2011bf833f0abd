#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 42 --seconds 30 --trace 0

Workloads: paper_grid, fleet_churn, fuzz_lossy. The first run configures and
builds perfbench/CMakeLists.txt (the simulator's src/ plus the perfbench
binary) into .bench_build/perfbench; later runs rebuild only what changed.
Each run checks that BENCHMARK.json names exactly the binary's metrics and
runs the binary's self-tests before measuring. The last line of stdout is the
binary's JSON result; the exit code is non-zero on any build, self-test or
correctness failure. With --trace 1 the spans go to
.bench_build/perfbench/spans-<workload>.json.

    python3 perfbench/run.py --selftest     # helper self-tests only
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper_grid", "fleet_churn", "fuzz_lossy")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")


def check_benchmark_json():
    """BENCHMARK.json must list exactly the metrics the binary prints."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True, text=True, check=True)
    printed = json.loads(listed.stdout)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in printed[key]]
        have = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if want != have:
            fail(f"BENCHMARK.json {key} does not match the binary's metrics", 3)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads do not match the binary's", 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if subprocess.run([BINARY, "--selftest"], stdout=sys.stderr).returncode != 0:
        fail("self-tests failed", 4)
    if args.selftest:
        return 0
    check_benchmark_json()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(BUILD, f"spans-{args.workload}.json")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 5)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
