#!/usr/bin/env python3
"""Run one PMG benchmark workload and print its result line.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. Builds the harness (perfbench/CMakeLists.txt,
which compiles the simulator from src/) into the build directory named by
CARGO_TARGET_DIR, default .bench_build, then runs it. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; metrics are exactly the end_to_end (--trace 0) or per_layer
(--trace 1) names of BENCHMARK.json. A traced run also writes its spans to
<build dir>/spans/<workload>-<seed>.json. Exits nonzero, printing no
result, when the sources are missing, the build fails, the harness fails,
or its metrics do not match BENCHMARK.json. `--workload all` runs the
workloads in turn and ends with one object keyed by workload.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pr-rmat-pmm", "web-migrate-observed")
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "pmg_bench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "pmg_bench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    harness = build(build_dir)
    if args.workload != "all":
        print(json.dumps(run_workload(harness, build_dir, args.workload,
                                      args)))
        return 0
    results = {}
    for workload in WORKLOADS:
        results[workload] = run_workload(harness, build_dir, workload, args)
        print(f"{workload}: {json.dumps(results[workload])}")
    print(json.dumps(results))
    return 0


def run_workload(harness, build_dir, workload, args):
    """Runs the harness once; returns its checked result object."""
    cmd = [harness, "--workload", workload, "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--spans", os.path.join(spans_dir, f"{workload}-{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=HARNESS_TIMEOUT_S, check=False,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"harness exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace)
    got = set(result["metrics"])
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(want - got)}, unexpected {sorted(got - want)}")
    return result


if __name__ == "__main__":
    sys.exit(main())
