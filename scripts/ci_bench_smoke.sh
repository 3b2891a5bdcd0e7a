#!/usr/bin/env bash
# Smoke-runs the whole benchmark harness and records the perf trajectory
# baseline: builds the Release preset into build-bench/, runs every bench_*
# binary with a tiny --benchmark_min_time so the sweep finishes in minutes,
# and assembles the per-binary telemetry snapshots (written via
# SYNCON_BENCH_JSON by the instrumented benches) plus each binary's Google
# Benchmark JSON into one trajectory file, build-bench/BENCH_smoke.json
# unless an output path is given, so a run leaves the tree clean.
#
# Usage: scripts/ci_bench_smoke.sh [output.json]
#        (default: build-bench/BENCH_smoke.json)
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-build-bench/BENCH_smoke.json}"
build_dir=build-bench
smoke_dir="$build_dir/smoke"

echo "=== [bench-smoke] configure ($build_dir, Release) ==="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

echo "=== [bench-smoke] build ==="
cmake --build "$build_dir" -j "$(nproc)" >/dev/null

mkdir -p "$smoke_dir"

for bin in "$build_dir"/bench/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  echo "=== [bench-smoke] $name ==="
  # The instrumented benches (bench_problem4_all_pairs,
  # bench_online_monitor) honor SYNCON_BENCH_JSON and drop a telemetry
  # snapshot; the others simply ignore the variable.
  SYNCON_BENCH_JSON="$smoke_dir/$name.telemetry.json" \
    "$bin" --benchmark_min_time=0.01 \
           --benchmark_out="$smoke_dir/$name.bench.json" \
           --benchmark_out_format=json \
    > "$smoke_dir/$name.log" 2>&1 \
    || { echo "FAILED — tail of $smoke_dir/$name.log:"; tail -20 "$smoke_dir/$name.log"; exit 1; }
done

echo "=== [bench-smoke] assemble $out ==="
python3 - "$smoke_dir" "$out" <<'PY'
import json, os, sys

smoke_dir, out_path = sys.argv[1], sys.argv[2]
runs = {}
for fname in sorted(os.listdir(smoke_dir)):
    path = os.path.join(smoke_dir, fname)
    if fname.endswith(".bench.json"):
        name, kind = fname[: -len(".bench.json")], "benchmarks"
    elif fname.endswith(".telemetry.json"):
        name, kind = fname[: -len(".telemetry.json")], "telemetry"
    else:
        continue
    with open(path) as f:
        payload = json.load(f)
    if kind == "benchmarks":
        # Keep the per-benchmark rows; drop the host-specific context so the
        # trajectory file diffs cleanly across machines.
        payload = payload.get("benchmarks", [])
    runs.setdefault(name, {})[kind] = payload

doc = {"schema": "syncon-bench-smoke-v1", "mode": "smoke", "runs": runs}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}: {len(runs)} benchmark binaries")
PY

echo "=== [bench-smoke] done ==="
