#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, measured the way it is accepted.

    python3 rtbench/spread.py --workload write-retro --seeds 1-10
    python3 rtbench/spread.py --all --seeds 1-5 --seconds 10

Runs rtbench/run.py once per seed and prints, for every metric, the
median over the runs and the quartile spread (Q3 - Q1) / median, with the
quartiles from statistics.quantiles(values, n=4).  An end-to-end spread
that is not below a third of the metric's bound in BENCHMARK.json is
flagged; setup_s has no spread limit, only its median is compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description="Quartile spread of the benchmark's metrics.")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]] if args.all else args.workload
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if args.trace == 0 else {}

    flagged = 0
    for workload in workloads:
        results = []
        for seed in seed_range(args.seeds):
            run = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                  "--workload", workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                 stdout=subprocess.PIPE, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit code {run.returncode}")
            results.append(json.loads(lines[-1]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in results[-1]["metrics"].items()), flush=True)
        if len(results) < 2:
            continue
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                flag = "  <- not below bound/3"
                flagged += 1
            print(f"{workload:12s} {name:30s} median {med:14.6g}  spread {spread:8.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}", flush=True)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
