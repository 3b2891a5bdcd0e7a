#!/usr/bin/env bash
# Smoke-runs the sharded multi-tenant monitoring daemon (syncon_monitord,
# DESIGN.md §3.15) at a pinned seed and asserts the service guarantees:
#
#   clean run      1k faulty tenants, binding memory budget — every
#                  tenant's daemon-side Definite verdict log bit-identical
#                  to its standalone reference, zero quarantined frames,
#                  events actually reclaimed, and at the default 1k
#                  tenants the budget's counted work pinned exactly: 897
#                  compactions reclaiming 64,539 events under a live-log
#                  peak of 4,262 (each of the 8 shards compacts its own
#                  laggiest changed tenants to its 512-event share after
#                  every pump; the counts repeat on any thread count, so a
#                  change means the policy compacts other sessions or at
#                  other pumps).
#   overload run   tiny shard queues + oversized submit batches — the
#                  daemon must shed load through backpressure rejects and
#                  still converge to bit-identical verdicts.
#
# On both runs the labeled per-tenant series left in the metric registry
# must stay within the daemon's bound (3 gauges for each of at most 64
# hosted tenants); a released tenant's series are dropped with it.
#
# The clean run's stats (p99 ingest latency, peak RSS, reclaimed events)
# are merged into the benchmark trajectory file under runs.service
# (creating a minimal file if scripts/ci_bench_smoke.sh has not run yet).
#
# Usage: scripts/ci_service_smoke.sh [tenants] [merge_target.json]
#        (defaults: 1000 tenants, build-bench/BENCH_smoke.json)
set -euo pipefail

cd "$(dirname "$0")/.."

tenants="${1:-1000}"
merge="${2:-build-bench/BENCH_smoke.json}"
build_dir=build-bench
smoke_dir="$build_dir/smoke"
seed=20260808

echo "=== [service-smoke] configure ($build_dir, Release) ==="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

echo "=== [service-smoke] build syncon_monitord ==="
cmake --build "$build_dir" -j "$(nproc)" --target syncon_monitord >/dev/null

mkdir -p "$smoke_dir"

echo "=== [service-smoke] clean run ($tenants tenants, budget 4096) ==="
# syncon_monitord exits non-zero on any per-tenant verdict divergence; the
# python assertions below re-check the stats JSON independently.
"$build_dir/tools/syncon_monitord" \
  --tenants="$tenants" --shards=8 --memory-budget=4096 --seed="$seed" \
  --report-drop=0.15 --report-dup=0.1 --report-reorder=0.2 \
  --no-serve --stats-json="$smoke_dir/service.json" \
  | tee "$smoke_dir/service.log"

echo "=== [service-smoke] overload run (queue-capacity 4, batch 32) ==="
"$build_dir/tools/syncon_monitord" \
  --tenants=200 --shards=4 --queue-capacity=4 --batch=32 --seed="$seed" \
  --report-drop=0.15 --report-dup=0.1 --report-reorder=0.2 \
  --no-serve --stats-json="$smoke_dir/service_overload.json" \
  | tee "$smoke_dir/service_overload.log"

echo "=== [service-smoke] assert service guarantees, merge into $merge ==="
python3 - "$smoke_dir/service.json" "$smoke_dir/service_overload.json" \
  "$merge" "$tenants" <<'PY'
import json, os, sys

clean_path, overload_path, merge_path, tenants = sys.argv[1:5]
with open(clean_path) as f:
    clean = json.load(f)
with open(overload_path) as f:
    overload = json.load(f)

failures = []
if clean["identity_mismatches"] != 0:
    failures.append("clean run: tenant verdicts diverged from references")
if clean["frames_quarantined"] != 0:
    failures.append("clean run: frames quarantined on an uncorrupted wire")
if clean["reclaimed_events"] <= 0:
    failures.append("clean run: memory budget never reclaimed anything")
pinned = {"compactions": 897, "reclaimed_events": 64539,
          "live_log_peak": 4262}
for key, want in pinned.items():
    if tenants == "1000" and clean[key] != want:
        failures.append(f"clean run: {key} {clean[key]}, pinned {want}")
if clean["p99_ingest_us"] <= 0:
    failures.append("clean run: ingest latency histogram is empty")
if overload["identity_mismatches"] != 0:
    failures.append("overload run: backpressure corrupted tenant verdicts")
if overload["backpressure_rejects"] <= 0:
    failures.append("overload run: tiny queues never rejected a submit")
for name, run in (("clean", clean), ("overload", overload)):
    if run["tenant_series"] > 3 * 64:
        failures.append(f"{name} run: {run['tenant_series']} per-tenant "
                        "series left in the registry, bound 192")
if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)

print("service guarantees hold:")
print(f"  tenants              : {clean['tenants']}")
print(f"  events / frames      : {clean['total_events']} / {clean['total_frames']}")
print(f"  verdicts             : {clean['verdicts']} (all bit-identical)")
print(f"  compactions          : {clean['compactions']}")
print(f"  reclaimed events     : {clean['reclaimed_events']}")
print(f"  live-log peak        : {clean['live_log_peak']}")
print(f"  p99 ingest latency   : {clean['p99_ingest_us']:.1f} us")
print(f"  peak RSS             : {clean['peak_rss_kib']} KiB")
print(f"  overload rejects     : {overload['backpressure_rejects']} (identity held)")
print(f"  per-tenant series    : {clean['tenant_series']} / "
      f"{overload['tenant_series']} (clean / overload)")

if os.path.exists(merge_path):
    with open(merge_path) as f:
        doc = json.load(f)
else:
    doc = {"schema": "syncon-bench-smoke-v1", "mode": "smoke", "runs": {}}
runs = doc.setdefault("runs", {})
if isinstance(runs, list):  # older trajectory files list run names only
    runs = doc["runs"] = {name: {} for name in runs}
runs["service"] = {"clean": clean, "overload": overload}
with open(merge_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"merged service stats into {merge_path}")
PY

echo "=== [service-smoke] done ==="
