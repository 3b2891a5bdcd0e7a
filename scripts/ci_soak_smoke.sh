#!/usr/bin/env bash
# Smoke-runs the retention soak (bench_longrun, DESIGN.md §3.10) at a short
# cycle count and asserts the retention guarantees from its telemetry
# snapshot: events were actually reclaimed, the live log plateaued instead
# of growing monotonically, the compacted faulty run's Definite verdicts
# stayed bit-identical to the clean run, and the late-joining monitor
# converged across the watermark with at least one surface reply (a resync
# round answered from the retention checkpoint, which OnlineMonitor::resync
# then adopts). At the default 4,000 cycles (SYNCON_SOAK_PROCS and
# SYNCON_SOAK_SEED unset) it also pins the plateau run's counted work:
# 65,982 executed events, 65,475 events its session's replica reclaimed,
# 125 resync rounds and exactly 1 surface reply. A changed count means the
# generator, the resync loop or the watermark moved. The reclaimed figure
# is the plateau run's own (syncon_longrun_reclaimed_events), not the
# process-wide syncon_online_reclaimed_events_total, which also sums the
# application logs and the identity phase's runs. The snapshot is then
# merged into the benchmark trajectory file under
# runs.bench_longrun.telemetry (creating a minimal file if
# scripts/ci_bench_smoke.sh has not run yet).
#
# Usage: scripts/ci_soak_smoke.sh [cycles] [merge_target.json]
#        (defaults: 4000 cycles, build-bench/BENCH_smoke.json)
set -euo pipefail

cd "$(dirname "$0")/.."

cycles="${1:-4000}"
merge="${2:-build-bench/BENCH_smoke.json}"
build_dir=build-bench
smoke_dir="$build_dir/smoke"

echo "=== [soak-smoke] configure ($build_dir, Release) ==="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

echo "=== [soak-smoke] build bench_longrun ==="
cmake --build "$build_dir" -j "$(nproc)" --target bench_longrun >/dev/null

mkdir -p "$smoke_dir"

echo "=== [soak-smoke] bench_longrun ($cycles cycles) ==="
# bench_longrun itself exits non-zero if any retention guarantee fails; the
# python assertions below re-check the published telemetry independently.
SYNCON_SOAK_CYCLES="$cycles" \
SYNCON_BENCH_JSON="$smoke_dir/bench_longrun.telemetry.json" \
  "$build_dir/bench/bench_longrun" | tee "$smoke_dir/bench_longrun.log"

echo "=== [soak-smoke] assert retention guarantees, merge into $merge ==="
python3 - "$smoke_dir/bench_longrun.telemetry.json" "$merge" "$cycles" <<'PY'
import json, os, sys

snap_path, merge_path, cycles = sys.argv[1], sys.argv[2], sys.argv[3]
with open(snap_path) as f:
    snap = json.load(f)
gauges = snap.get("gauges", {})

failures = []
if gauges.get("syncon_longrun_reclaimed_events", 0) <= 0:
    failures.append("the plateau run reclaimed nothing: compaction never ran")
if gauges.get("syncon_longrun_plateau_ok") != 1:
    failures.append("live log grew instead of plateauing")
if gauges.get("syncon_longrun_verdict_identity") != 1:
    failures.append("compacted faulty verdicts diverged from the clean run")
if gauges.get("syncon_longrun_late_joiner_converged") != 1:
    failures.append("late joiner failed to converge across the watermark")
if gauges.get("syncon_longrun_surface_replies", 0) < 1:
    failures.append("late joiner got no surface reply: its resync never "
                    "crossed the watermark")
if cycles == "4000" and not any(
        os.environ.get(dial) for dial in ("SYNCON_SOAK_PROCS",
                                          "SYNCON_SOAK_SEED")):
    pinned = {"syncon_longrun_executed_events": 65982,
              "syncon_longrun_reclaimed_events": 65475,
              "syncon_longrun_resync_rounds": 125,
              "syncon_longrun_surface_replies": 1}
    for name, want in pinned.items():
        if gauges.get(name) != want:
            failures.append(f"{name} = {gauges.get(name)}, pinned {want}")
if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)

print("retention guarantees hold:")
print(f"  reclaimed events : {gauges.get('syncon_longrun_reclaimed_events')}")
print(f"  live log peak    : {gauges.get('syncon_longrun_live_log_peak')}")
print(f"  live log final   : {gauges.get('syncon_longrun_live_log_final')}")
print(f"  surface replies  : {gauges.get('syncon_longrun_surface_replies')}")
print(f"  executed events  : {gauges.get('syncon_longrun_executed_events')}")
print(f"  resync rounds    : {gauges.get('syncon_longrun_resync_rounds')}")

if os.path.exists(merge_path):
    with open(merge_path) as f:
        doc = json.load(f)
else:
    doc = {"schema": "syncon-bench-smoke-v1", "mode": "smoke", "runs": {}}
doc.setdefault("runs", {}).setdefault("bench_longrun", {})["telemetry"] = snap
with open(merge_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"merged telemetry into {merge_path}")
PY

echo "=== [soak-smoke] done ==="
