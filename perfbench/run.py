#!/usr/bin/env python3
"""Builds and runs the wire-level serving benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload road-batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench (CMake, Release) from the checkout's sources
into $CARGO_TARGET_DIR (default .bench_build), runs one workload and passes
its output through; the last stdout line is the JSON result. The second form
runs every workload at toy size and checks the benchmark itself: every
metric named in BENCHMARK.json is emitted with its unit, an injected wrong
answer and an injected refused request both count in error_rate, and the
open-loop generator reports an injected stall as lateness.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    out = os.path.join(build_dir(), "perfbench-cmake")
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args, capture):
    workdir = os.path.join(build_dir(), "perfbench-work")
    cmd = [binary, "--workdir", workdir] + args
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(cond, what):
        print(("PASS " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    def result(workload, trace, extra=()):
        done = run_binary(binary, ["--workload", workload, "--seed", "7",
                                   "--seconds", "2", "--trace", str(trace),
                                   "--toy"] + list(extra), capture=True)
        if done is None or not done.stdout.strip():
            return None, None
        last = done.stdout.strip().splitlines()[-1]
        return done.returncode, json.loads(last)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = result(name, trace)
            check(out is not None and rc == 0 and out["correct"]
                  and out["failed"] == 0,
                  f"{name} trace={trace}: runs clean")
            if out is None:
                continue
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: result keys")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == want,
                  f"{name} trace={trace}: every {key} metric with its unit")
        rc, out = result(name, 1, ["--inject", "wrong,refused,stall"])
        check(out is not None and rc == 1 and not out["correct"],
              f"{name}: an injected wrong answer fails the run")
        if out is None:
            continue
        check(out["failed"] == 2,
              f"{name}: one wrong answer + one refused request = 2 failed")
        rate = out["metrics"]["error_rate"]["value"]
        check(abs(rate - 2 / out["attempted"]) < 1e-12,
              f"{name}: error_rate counts both")
        if name == "social-zipf-swap":
            lag = out["metrics"]["net.client.gen_lag_p99_us"]["value"]
            check(lag >= 5000,
                  f"{name}: a 50 ms generator stall shows as lateness ({lag:.0f} us)")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    done = run_binary(binary, ["--workload", args.workload, "--seed",
                               args.seed, "--seconds", args.seconds,
                               "--trace", args.trace], capture=False)
    return 1 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
