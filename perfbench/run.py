#!/usr/bin/env python3
"""Builds and runs the PTLDB benchmark; prints one JSON result line last.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload v2v_warm|v2v_cold|sets_churn \
      --seed N --seconds S --trace 0|1

The driver is built from the checkout's own sources into $CARGO_TARGET_DIR
(default .bench_build). The result line carries every end_to_end metric of
BENCHMARK.json with --trace 0 and every per_layer metric with --trace 1;
run.py refuses a result whose metric names or units differ from that list.
A traced run also writes its spans to <build dir>/traces/<workload>.jsonl.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DRIVER_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out, target="perfbench_driver", required=True):
    """Configures (once) and builds `target`; returns its path, or None when
    an optional target failed to build. Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PTLDB sources next to perfbench/ (src/CMakeLists.txt)")
    steps = [["cmake", "--build", out, "-j", BUILD_JOBS, "--target", target]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            if required:
                fail("build step failed: " + " ".join(step))
            return None
    return os.path.join(out, target)


def declared_metrics(trace):
    """(name -> unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Problems with a driver result line; empty when it is well-formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    for name, metric in result["metrics"].items():
        if not NAME_RE.match(name):
            problems.append("invalid metric name %r" % name)
        value = metric.get("value")
        if not isinstance(value, (int, float)) or value != value:
            problems.append("metric %s has no numeric value" % name)
    got = {n: m.get("unit") for n, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s, unit mismatch %s" % (missing, extra, units))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a non-negative integer")
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    expected = declared_metrics(args.trace == 1)
    driver = build(out)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        command += ["--trace-out",
                    os.path.join(out, "traces", args.workload + ".jsonl")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail("driver printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON (exit %d)" % proc.returncode)
    problems = check_result(result, expected)
    if problems:
        fail("; ".join(problems))
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
