#!/usr/bin/env python3
"""Smoke test of bench_e2e at tiny sizes.

For every workload BENCHMARK.json names, it checks that
  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) is emitted with the unit BENCHMARK.json gives it;
  * counted per-layer metrics (units count, bytes and ratio) repeat exactly
    across two runs with the same seed;
  * a held-out seed still passes the correctness gates.

Run from the repository root:  python3 bench_e2e/smoke_test.py
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402

COUNTED_UNITS = {"count", "bytes", "ratio"}
SEED = 7
HELD_OUT_SEED = 90210


def invoke(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(
            f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def problems_with(result, specs, label):
    problems = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: gates failed "
                        f"({result['failed']} of {result['attempted']})")
    metrics = result["metrics"]
    expected = {spec["name"]: spec["unit"] for spec in specs}
    if set(metrics) != set(expected):
        problems.append(f"{label}: metric names differ: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        if name in metrics and metrics[name]["unit"] != unit:
            problems.append(f"{label}: {name} has unit "
                            f"{metrics[name]['unit']}, expected {unit}")
    return problems


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = bench_run.build()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        e2e = invoke(binary, workload, SEED, 0)
        first = invoke(binary, workload, SEED, 1)
        second = invoke(binary, workload, SEED, 1)
        held_out = invoke(binary, workload, HELD_OUT_SEED, 0)
        problems += problems_with(e2e, spec["end_to_end"], f"{workload} trace 0")
        problems += problems_with(first, spec["per_layer"], f"{workload} trace 1")
        problems += problems_with(second, spec["per_layer"],
                                  f"{workload} trace 1, second run")
        problems += problems_with(held_out, spec["end_to_end"],
                                  f"{workload} held-out seed")
        for metric in spec["per_layer"]:
            name = metric["name"]
            if (metric["unit"] in COUNTED_UNITS and name in first["metrics"]
                    and name in second["metrics"]):
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload}: counted metric {name} "
                                    f"differs across runs: {a} vs {b}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
