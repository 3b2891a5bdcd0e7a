#!/usr/bin/env bash
# Smoke-runs the schedule explorer (syncon_explore, DESIGN.md §3.14): fully
# enumerates the pinned 4-proc / 10-message universe with the core
# invariant battery and the naive-enumeration comparison, asserts the
# enumeration completed without violations, executed exactly one schedule
# per inequivalent class with no duplicate, and measurably reduced the
# schedule count against naive, then runs the pinned-seed 100-case
# schedule_invariance sweep and asserts zero violations. The exploration
# stats are merged into the benchmark trajectory file under
# runs.explore.stats (creating a minimal file if scripts/ci_bench_smoke.sh
# has not run yet).
#
# Usage: scripts/ci_explore_smoke.sh [sweep_cases] [merge_target.json]
#        (defaults: 100 cases, build-bench/BENCH_smoke.json)
set -euo pipefail

cd "$(dirname "$0")/.."

sweep_cases="${1:-100}"
merge="${2:-build-bench/BENCH_smoke.json}"
build_dir=build-bench
smoke_dir="$build_dir/smoke"

echo "=== [explore-smoke] configure ($build_dir, Release) ==="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

echo "=== [explore-smoke] build syncon_explore ==="
cmake --build "$build_dir" -j "$(nproc)" --target syncon_explore_cli >/dev/null

mkdir -p "$smoke_dir"

echo "=== [explore-smoke] exhaustive 4-proc / 10-message universe ==="
# syncon_explore exits non-zero if any schedule violates the battery; the
# python assertions below re-check the published stats independently.
"$build_dir/tools/syncon_explore" --seed 1 --procs 4 --messages 10 \
  --invariants core --naive \
  --stats-json "$smoke_dir/explore_4p10m.stats.json" \
  | tee "$smoke_dir/explore_4p10m.log"

echo "=== [explore-smoke] pinned-seed schedule_invariance sweep ==="
"$build_dir/tools/syncon_explore" --seed 20260808 --cases "$sweep_cases" \
  | tee "$smoke_dir/explore_sweep.log"

echo "=== [explore-smoke] assert exploration stats, merge into $merge ==="
python3 - "$smoke_dir/explore_4p10m.stats.json" "$merge" <<'PY'
import json, os, sys

stats_path, merge_path = sys.argv[1], sys.argv[2]
with open(stats_path) as f:
    stats = json.load(f)

failures = []
if stats.get("violation"):
    failures.append("a schedule violated the invariant battery")
if stats.get("budget_exhausted"):
    failures.append("schedule budget exhausted: the universe was not fully "
                    "enumerated")
if stats.get("inequivalent_schedules", 0) <= 0:
    failures.append("no inequivalent schedules were visited")
if stats.get("schedules_executed") != stats.get("inequivalent_schedules"):
    failures.append("executed schedules != inequivalent schedules: the "
                    "enumeration is not one schedule per class")
if stats.get("duplicate_traces") != 0:
    failures.append("duplicate traces were executed")
if stats.get("naive_schedules", 0) <= stats.get("schedules_executed", 0):
    failures.append("naive enumeration did not exceed the reduced schedule "
                    "count: no measured reduction")
if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)

reduction = stats["naive_schedules"] / max(stats["schedules_executed"], 1)
capped = " (naive capped)" if stats.get("naive_capped") else ""
print("exploration guarantees hold:")
print(f"  inequivalent schedules : {stats['inequivalent_schedules']}")
print(f"  schedules executed     : {stats['schedules_executed']}")
print(f"  cyclic choices rejected: {stats['prefixes_pruned']}")
print(f"  reduction vs naive     : >={reduction:.1f}x{capped}")
print(f"  wall seconds           : {stats['wall_seconds']}")

if os.path.exists(merge_path):
    with open(merge_path) as f:
        doc = json.load(f)
else:
    doc = {"schema": "syncon-bench-smoke-v1", "mode": "smoke", "runs": {}}
doc.setdefault("runs", {}).setdefault("explore", {})["stats"] = stats
with open(merge_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"merged exploration stats into {merge_path}")
PY

echo "=== [explore-smoke] done ==="
