#!/usr/bin/env python3
"""Build and run the realtime benchmark from this source tree.

    python3 rtbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rtbench/run.py --selftest

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json from an untraced run; --trace 1 reports the
per-layer metrics from a traced run.  The exit code is nonzero when an
output check failed or the run could not be made.

The binary is built with CMake (Release) under $CARGO_TARGET_DIR/rtbench,
by default .bench_build/rtbench, relative to the current directory.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
RUN_TIMEOUT_S = 170


def fail(message):
    print("rtbench: " + message, file=sys.stderr, flush=True)
    sys.exit(1)


def declared():
    """Declared metrics ({name: unit} end-to-end, per-layer) and workloads."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    def units(key):
        return {m["name"]: m["unit"] for m in spec[key]}

    return units("end_to_end"), units("per_layer"), [w["name"] for w in spec["workloads"]]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "kvstore", "realtime_cluster.hpp")):
        fail("the library sources are missing; run from a full checkout")
    out = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")), "rtbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "--target", "rtbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "rtbench")


def name_problems(printed, expected, kind):
    """Compare printed {name: unit} with the declared {name: unit}."""
    problems = []
    for name, unit in printed.items():
        if not NAME.match(name):
            problems.append(f"{kind} name {name!r} is not [A-Za-z0-9_.-]+")
        elif name not in expected:
            problems.append(f"{kind} metric {name} is not declared in BENCHMARK.json")
        elif unit != expected[name]:
            problems.append(f"{kind} metric {name} has unit {unit}, BENCHMARK.json says {expected[name]}")
    problems += [f"{kind} metric {n} is declared but not printed" for n in expected if n not in printed]
    return problems


def selftest(binary, end_to_end, per_layer):
    ok = subprocess.run([binary, "--selftest"]).returncode == 0
    listing = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE, text=True, check=True)
    printed = {"end-to-end": {}, "per-layer": {}}
    for line in listing.stdout.splitlines():
        kind, name, unit = line.split()
        printed[kind][name] = unit
    problems = (name_problems(printed["end-to-end"], end_to_end, "end-to-end")
                + name_problems(printed["per-layer"], per_layer, "per-layer"))
    for problem in problems:
        print("FAIL " + problem)
    if not problems:
        print("ok   every printed metric name matches [A-Za-z0-9_.-]+ and BENCHMARK.json")
    return 0 if ok and not problems else 1


def main():
    parser = argparse.ArgumentParser(description="Build and run the realtime benchmark.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    end_to_end, per_layer, workloads = declared()
    binary = build()
    if args.selftest:
        sys.exit(selftest(binary, end_to_end, per_layer))
    if args.workload not in workloads:
        fail("--workload must be one of " + ", ".join(workloads))
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"the run printed no result (exit code {run.returncode})")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("the result object does not have exactly correct, attempted, failed, metrics")
    metrics = result["metrics"]
    kind = "per-layer" if args.trace else "end-to-end"
    problems = name_problems({n: m.get("unit") for n, m in metrics.items()},
                             per_layer if args.trace else end_to_end, kind)
    problems += [f"metric {n} is not a finite number" for n, m in metrics.items()
                 if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"])]
    if problems:
        fail("; ".join(problems))
    print(lines[-1], flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
