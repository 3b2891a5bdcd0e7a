#!/usr/bin/env bash
# Smoke-runs the observability stack (DESIGN.md §3.8, §3.13) end to end.
# First the span export: trace_analysis writes the span ring as a Chrome
# trace, and the script asserts that the JSON parses and that each span
# name's count is exactly the pinned one (model/stamp 1, relation/register
# 5, relation/seal 1, relation/evaluate 1, monitor/ingest 182,
# online/compact 11: the first query seals the five intervals' blocks, and
# the matrix, report and causal trace share the stamps built once). This
# check merges nothing into the trajectory file. Then a seeded faulty soak
# through syncon_metricsd exports every causal artifact, and the script
# asserts
#   * the causal trace is well-formed JSON whose span reachability the
#     binary itself property-checked against the clock order, and its
#     resync spans, counted by name, include both resync/request (one per
#     OnlineMonitor::resync round) and resync/serve (one per log serve):
#     the injected report faults must be visible from both sides;
#   * every detection-latency waterfall is monotone and its stages sum
#     exactly to the end-to-end latency;
#   * the injected quarantine appended an automatic flight dump containing
#     the offending delivery plus preceding ring context;
# and merges the stage-latency histograms (p50/p95/p99) into the benchmark
# trajectory file under runs.syncon_metricsd.telemetry.
#
# Usage: scripts/ci_obs_smoke.sh [cycles] [merge_target.json]
#        (defaults: 600 cycles, build-bench/BENCH_smoke.json)
set -euo pipefail

cd "$(dirname "$0")/.."

cycles="${1:-600}"
merge="${2:-build-bench/BENCH_smoke.json}"
build_dir=build-bench
smoke_dir="$build_dir/smoke"

echo "=== [obs-smoke] configure ($build_dir, Release) ==="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

echo "=== [obs-smoke] build syncon_metricsd, trace_analysis ==="
cmake --build "$build_dir" -j "$(nproc)" \
  --target syncon_metricsd trace_analysis >/dev/null

mkdir -p "$smoke_dir"
rm -f "$smoke_dir/obs_flight_dump.txt" "$smoke_dir/spans.json"

echo "=== [obs-smoke] span export (trace_analysis --chrome-trace) ==="
"$build_dir/examples/trace_analysis" \
  --generate --report --matrix --x=W0 --y=W2 --online-compact=16 \
  --chrome-trace="$smoke_dir/spans.json" > "$smoke_dir/spans.log"
python3 - "$smoke_dir/spans.json" <<'PY'
import collections, json, sys

with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
counts = dict(collections.Counter(e["name"] for e in events))
expected = {"model/stamp": 1, "relation/register": 5, "relation/seal": 1,
            "relation/evaluate": 1, "monitor/ingest": 182,
            "online/compact": 11}
if counts != expected:
    print(f"FAIL: span counts {sorted(counts.items())} != "
          f"{sorted(expected.items())}", file=sys.stderr)
    sys.exit(1)
bad = [e for e in events if e["ph"] != "X" or e["dur"] < 0]
if bad:
    print(f"FAIL: malformed span events {bad[:3]}", file=sys.stderr)
    sys.exit(1)
print(f"span export: {len(events)} spans, counts as pinned")
PY

echo "=== [obs-smoke] faulty soak ($cycles cycles, seeded) ==="
# syncon_metricsd exits non-zero if verify_causal_consistency fails or the
# poisoned report is accepted; the python assertions below re-check the
# exported artifacts independently.
"$build_dir/tools/syncon_metricsd" \
  --cycles="$cycles" --processes=4 --seed=20260808 \
  --report-drop=0.08 --report-dup=0.03 --report-reorder=0.03 \
  --causal-trace="$smoke_dir/obs_causal.otlp.json" \
  --waterfalls="$smoke_dir/obs_waterfalls.json" \
  --flight-json="$smoke_dir/obs_flight.json" \
  --telemetry-json="$smoke_dir/obs_telemetry.json" \
  --inject-quarantine --flight-dump="$smoke_dir/obs_flight_dump.txt" \
  | tee "$smoke_dir/obs_smoke.log"

echo "=== [obs-smoke] assert artifacts, merge into $merge ==="
python3 - "$smoke_dir" "$merge" <<'PY'
import json, os, sys

smoke_dir, merge_path = sys.argv[1], sys.argv[2]
failures = []

# --- causal trace: well-formed, with resync spans ---------------------------
with open(os.path.join(smoke_dir, "obs_causal.otlp.json")) as f:
    trace = json.load(f)
spans = trace["resourceSpans"][0]["scopeSpans"][0]["spans"]
kinds = {}
resync_names = {}
for span in spans:
    for attr in span.get("attributes", []):
        if attr["key"] == "syncon.kind":
            kind = attr["value"]["stringValue"]
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "resync":
                resync_names[span["name"]] = \
                    resync_names.get(span["name"], 0) + 1
for name in ("resync/request", "resync/serve"):
    if resync_names.get(name, 0) <= 0:
        failures.append(f"causal trace has no {name} spans despite report "
                        f"faults (resync spans: {resync_names})")
if kinds.get("event", 0) <= 0:
    failures.append("causal trace has no event spans")
if kinds.get("verdict", 0) <= 0:
    failures.append("causal trace has no verdict spans")

# --- waterfalls: monotone, stages sum to total ------------------------------
with open(os.path.join(smoke_dir, "obs_waterfalls.json")) as f:
    falls_doc = json.load(f)
falls = falls_doc["waterfalls"]
if not falls:
    failures.append("soak produced no detection-latency waterfalls")
for i, fall in enumerate(falls):
    cursor = fall["start_us"]
    total = 0
    for stage in fall["stages"]:
        if stage["start_us"] != cursor:
            failures.append(f"waterfall {i} stage {stage['stage']} not "
                            f"contiguous at {cursor}")
            break
        cursor += stage["duration_us"]
        total += stage["duration_us"]
    else:
        if total != fall["total_us"]:
            failures.append(
                f"waterfall {i} stages sum {total} != total {fall['total_us']}")

# --- flight dump on the injected quarantine ---------------------------------
dump_path = os.path.join(smoke_dir, "obs_flight_dump.txt")
if not os.path.exists(dump_path):
    failures.append("injected quarantine produced no automatic flight dump")
else:
    with open(dump_path) as f:
        dump = f.read()
    if "quarantine" not in dump:
        failures.append("flight dump lacks the quarantine reason/record")
    if "delivery" not in dump:
        failures.append("flight dump lacks preceding delivery context")

# --- flight JSON parses -----------------------------------------------------
with open(os.path.join(smoke_dir, "obs_flight.json")) as f:
    flight = json.load(f)
if not flight.get("records"):
    failures.append("flight JSON dump is empty")

if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)

with open(os.path.join(smoke_dir, "obs_telemetry.json")) as f:
    telemetry = json.load(f)
stage_hists = {name: h for name, h in telemetry.get("histograms", {}).items()
               if name.startswith("syncon_detect_latency_")}
print("causal-observability guarantees hold:")
print(f"  spans                : {len(spans)} "
      f"({kinds.get('resync', 0)} resync, {kinds.get('verdict', 0)} verdict)")
print(f"  resync spans by name : {dict(sorted(resync_names.items()))}")
print(f"  monotone waterfalls  : {len(falls)}")
print(f"  flight records       : {len(flight['records'])}")
for name in sorted(stage_hists):
    h = stage_hists[name]
    print(f"  {name}: count={h['count']} p99={h['p99']}")

if os.path.exists(merge_path):
    with open(merge_path) as f:
        doc = json.load(f)
else:
    doc = {"schema": "syncon-bench-smoke-v1", "mode": "smoke", "runs": {}}
doc.setdefault("runs", {}).setdefault("syncon_metricsd", {})["telemetry"] = \
    telemetry
with open(merge_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"merged stage-latency telemetry into {merge_path}")
PY

echo "=== [obs-smoke] done ==="
