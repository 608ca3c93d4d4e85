#!/usr/bin/env python3
"""Run the bench binaries and compare two sets of BENCH_*.json reports.

Every simulator bench is a deterministic function of its seed, so a change
that only moves code (and not the modelled prices) must leave every report
byte-for-byte the same.  Two modes:

  compare_reports.py --run BUILD OUT
      Run every bench_* binary under BUILD/bench at RETRO_BENCH_SCALE=0.25,
      writing the reports into OUT.  bench_table1_api_micro runs under the
      BM_ComputeDiff filter, as in CI.  Exits 1 if any bench fails.

  compare_reports.py A B
      Compare report directories A and B key by key, print each difference
      and exit 1 on any difference or a file missing on either side.
      Wall-clock reports are skipped: BENCH_realtime_kv.json,
      BENCH_table1_api_micro.json, and bench_query_replay's *_millis keys.

Typical use, with the parent commit built in OLD_BUILD and the change in
NEW_BUILD:

  bench/compare_reports.py --run OLD_BUILD /tmp/old
  bench/compare_reports.py --run NEW_BUILD /tmp/new
  bench/compare_reports.py /tmp/old /tmp/new
"""

import json
import os
import subprocess
import sys

SCALE = "0.25"
SKIPPED_FILES = {"BENCH_realtime_kv.json", "BENCH_table1_api_micro.json"}
EXTRA_ARGS = {"bench_table1_api_micro": ["--benchmark_filter=BM_ComputeDiff"]}


def skipped_key(filename, key):
    return filename == "BENCH_query_replay.json" and key.endswith("_millis")


def run_all(build, out):
    bench_dir = os.path.join(build, "bench")
    names = sorted(
        n for n in os.listdir(bench_dir)
        if n.startswith("bench_")
        and os.access(os.path.join(bench_dir, n), os.X_OK)
        and os.path.isfile(os.path.join(bench_dir, n)))
    if not names:
        print(f"no bench_* binaries under {bench_dir}")
        return 1
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, RETRO_BENCH_SCALE=SCALE,
               RETRO_BENCH_OUT=os.path.abspath(out))
    failed = []
    for name in names:
        cmd = [os.path.join(bench_dir, name)] + EXTRA_ARGS.get(name, [])
        result = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        print(f"{name}: exit {result.returncode}")
        if result.returncode != 0:
            failed.append(name)
    if failed:
        print("failed: " + " ".join(failed))
        return 1
    return 0


def flatten(report):
    """Every leaf of a report as (key, value), checks keyed by claim."""
    items = {}
    for field, value in report.items():
        if field == "metrics" or field == "meta":
            for k, v in value.items():
                items[f"{field}.{k}"] = v
        elif field == "checks":
            for i, check in enumerate(value):
                items[f"checks[{i}] {check.get('claim')}"] = check.get("pass")
        else:
            items[field] = value
    return items


def compare(a_dir, b_dir):
    def reports(d):
        return {n for n in os.listdir(d)
                if n.startswith("BENCH_") and n.endswith(".json")}

    differences = 0
    a_files, b_files = reports(a_dir), reports(b_dir)
    for name in sorted((a_files | b_files) - SKIPPED_FILES):
        if name not in a_files or name not in b_files:
            side = a_dir if name not in a_files else b_dir
            print(f"{name}: missing in {side}")
            differences += 1
            continue
        with open(os.path.join(a_dir, name)) as f:
            a = flatten(json.load(f))
        with open(os.path.join(b_dir, name)) as f:
            b = flatten(json.load(f))
        for key in sorted(set(a) | set(b)):
            if skipped_key(name, key):
                continue
            if a.get(key, "<missing>") != b.get(key, "<missing>"):
                print(f"{name}: {key}: {a.get(key, '<missing>')} -> "
                      f"{b.get(key, '<missing>')}")
                differences += 1
    compared = len((a_files | b_files) - SKIPPED_FILES)
    print(f"{compared} report(s) compared, {differences} difference(s)")
    return 1 if differences else 0


def main(argv):
    if len(argv) == 4 and argv[1] == "--run":
        return run_all(argv[2], argv[3])
    if len(argv) == 3 and not argv[1].startswith("-"):
        return compare(argv[1], argv[2])
    print(__doc__.strip())
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
