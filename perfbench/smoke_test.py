#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload in BENCHMARK.json briefly, untraced and traced, and
checks the result line: its keys, that every op passed its oracle, and that
the metric names and units are exactly the ones BENCHMARK.json declares.
Then checks that the benchmark refuses to run, without printing a result,
from a tree that holds only BENCHMARK.json and the benchmark's own files.

    python3 perfbench/smoke_test.py [--seconds S]
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(command, cwd, seconds, workload, trace):
    args = [*command, "--workload", workload, "--seed", "7",
            "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(spec, workload, trace, proc):
    errors = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"oracle failures: {proc.stderr[-400:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    table = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = result.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        if set(metric) != {"value", "unit"}:
            errors.append(f"{name}: keys {sorted(metric)}")
            continue
        if name in want and metric["unit"] != want[name]:
            errors.append(f"{name}: unit {metric['unit']} != {want[name]}")
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
        elif not trace and value == 0:
            errors.append(f"{name}: end-to-end metric is 0")
    if trace:
        for name in ("curve.cache_hits", "net.rejects"):
            if got.get(name, {}).get("value") != 0:
                errors.append(f"{name} must be 0")
    info = json.loads(lines[-2]).get("info", {})
    for key in ("nproc", "simd_target", "compiler", "build_type"):
        if key not in info:
            errors.append(f"info lacks {key}")
    return errors


def check_bare_tree(spec, seconds):
    """Only BENCHMARK.json and the benchmark's paths: must fail, silently."""
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["command"], bare, seconds, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["bare tree: exit code 0"]
    if '"metrics"' in proc.stdout:
        return ["bare tree: printed a result"]
    return []


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    seconds = parser.parse_args().seconds
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(spec["command"], ROOT, seconds, workload, trace)
            errors = check_result(spec, workload, trace, proc)
            status = "ok" if not errors else "FAIL"
            print(f"{workload} --trace {trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    errors = check_bare_tree(spec, seconds)
    print(f"bare tree refuses to run: {'ok' if not errors else 'FAIL'}")
    for e in errors:
        print(f"  {e}")
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
