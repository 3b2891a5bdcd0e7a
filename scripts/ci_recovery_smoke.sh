#!/usr/bin/env bash
# Smoke-runs the crash/recovery sweep (bench_recovery, DESIGN.md §3.12) at
# a short iteration count with pinned seeds and asserts the durability
# guarantees from its telemetry snapshot: crashes were actually injected,
# at least one recovery found durable state (snapshot + WAL tail), the
# recovered runs stayed bit-identical to uninterrupted fault-free
# references, and the worst recovery constructor scan stayed inside the
# wall-clock budget. The snapshot is then merged into the benchmark
# trajectory file under runs.bench_recovery.telemetry (creating a minimal
# file if scripts/ci_bench_smoke.sh has not run yet).
#
# Usage: scripts/ci_recovery_smoke.sh [iters] [merge_target.json]
#        (defaults: 24 iterations, build-bench/BENCH_smoke.json)
# Env:   SYNCON_RECOVERY_BUDGET_US  max allowed recovery scan, µs
#        (default 250000 — generous on purpose: CI machines are noisy;
#        the point is catching quadratic blowups, not 10% regressions)
set -euo pipefail

cd "$(dirname "$0")/.."

iters="${1:-24}"
merge="${2:-build-bench/BENCH_smoke.json}"
budget_us="${SYNCON_RECOVERY_BUDGET_US:-250000}"
build_dir=build-bench
smoke_dir="$build_dir/smoke"

echo "=== [recovery-smoke] configure ($build_dir, Release) ==="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

echo "=== [recovery-smoke] build bench_recovery ==="
cmake --build "$build_dir" -j "$(nproc)" --target bench_recovery >/dev/null

mkdir -p "$smoke_dir"

echo "=== [recovery-smoke] bench_recovery ($iters iterations) ==="
# bench_recovery itself exits non-zero if identity breaks; the python
# assertions below re-check the published telemetry independently.
SYNCON_RECOVERY_ITERS="$iters" \
SYNCON_BENCH_JSON="$smoke_dir/bench_recovery.telemetry.json" \
  "$build_dir/bench/bench_recovery" | tee "$smoke_dir/bench_recovery.log"

echo "=== [recovery-smoke] assert recovery guarantees, merge into $merge ==="
python3 - "$smoke_dir/bench_recovery.telemetry.json" "$merge" \
  "$budget_us" <<'PY'
import json, os, sys

snap_path, merge_path, budget_us = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open(snap_path) as f:
    snap = json.load(f)
gauges = snap.get("gauges", {})

failures = []
if gauges.get("syncon_recovery_identity") != 1:
    failures.append("recovered run diverged from the uninterrupted reference")
if gauges.get("syncon_recovery_crashes", 0) <= 0:
    failures.append("crash counter stayed zero: the sweep never killed anything")
if gauges.get("syncon_recovery_recoveries", 0) <= 0:
    failures.append("no recovery ever found durable state (snapshot + WAL)")
micros_max = gauges.get("syncon_recovery_micros_max", 0)
if micros_max > budget_us:
    failures.append(
        f"worst recovery scan {micros_max}µs exceeds budget {budget_us}µs")
if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)

print("recovery guarantees hold:")
print(f"  runs               : {gauges.get('syncon_recovery_runs')}")
print(f"  crashes injected   : {gauges.get('syncon_recovery_crashes')}")
print(f"  durable recoveries : {gauges.get('syncon_recovery_recoveries')}")
print(f"  records replayed   : {gauges.get('syncon_recovery_events_replayed')}")
print(f"  recovery µs max    : {micros_max} (budget {budget_us})")

if os.path.exists(merge_path):
    with open(merge_path) as f:
        doc = json.load(f)
else:
    doc = {"schema": "syncon-bench-smoke-v1", "mode": "smoke", "runs": {}}
doc.setdefault("runs", {}).setdefault("bench_recovery", {})["telemetry"] = snap
with open(merge_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"merged telemetry into {merge_path}")
PY

echo "=== [recovery-smoke] done ==="
