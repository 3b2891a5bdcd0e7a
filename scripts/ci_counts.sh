#!/usr/bin/env bash
# Counted-work gate of the offline, service and explore pipelines: runs
# every bench_e2e workload at seed 1 with per-layer metrics and fails unless
# every run is correct with no failed operation and its counted work equals
# the pinned values:
#
#   offline_trace    Theorem 20 comparisons and relation evaluations per
#                    pair, (next to) no allocation per pair, and upper
#                    bounds on allocations per event and per registered
#                    interval. The monitor stamps nothing: its constructor
#                    makes four allocations in all (the monitor, its
#                    evaluator, the evaluator's entry deque), and the
#                    first query seals every interval's cut block inside
#                    the relations.exhaustive window, so the per-pair
#                    bound covers the seal's few buffers too;
#   service_small    wire bytes per frame and per event, the daemon's
#                    peak live log in events, and an upper bound on
#                    allocations per applied tenant op;
#   service_durable  wire bytes per frame and per event, the journal's
#                    peak size in bytes, the daemon's peak live log in
#                    events, an upper bound on allocations per applied
#                    tenant op, and an upper bound on journal syncs per
#                    frame;
#   explore_4p10m    schedules executed per inequivalent class (exactly
#                    one: the explorer enumerates acyclic message
#                    bindings and executes one schedule per poset), and
#                    the cyclic choices rejected and dead-end partial
#                    bindings per class.
#
# Timings are not gated: they are advisory on a shared host, while these
# counts repeat exactly for a seed. A changed wire or journal byte count
# means the codecs no longer write the bytes they wrote before; a changed
# explore count means the explorer walks a different binding tree. Report
# frames carry no action label: the session's monitor routes a report by
# the membership its event frame declared. The allocation bounds are the
# measured 1.395 and 0.632 allocations per op plus 0.05, rounded up to two
# decimals. They sit below what the session's own event -> label maps cost
# (1.486 and 0.651), what a member list that reallocates for every action
# costs (1.449 and 0.643: the monitor keeps the list's buffer when it
# reuses an action id), and what a clock, a source vector and a dedup node
# per logged event cost (2.56 and 2.42): the replica log appends to flat
# per-process columns, one clock row per change, and its gap trackers keep
# out-of-order arrivals in one sorted array, so an event allocates only
# when a column grows; and a report op hands the decoded message to the
# monitor as it is, with no clock copy (1.952 and 1.126 with one). A
# changed live-log peak means the memory budget compacted different
# sessions, or at different times.
# The sync bound sits below what one sync per frame costs (1 per frame): a
# pump syncs each tenant with frames in it once (~0.125 per frame here).
# The registration bound is the measured 5.27 allocations per interval plus
# 0.5: the call-site copy of the interval (3), the label map node (1), the
# evaluator's one cut block (1) and a deque node per four entries. Building
# each interval's proxies, their cuts and its Defn 3 proxies at
# registration cost 39.4. The per-event bound is those four constructor
# allocations plus one, over offline_trace's 51,280 events (5 / 51,280 =
# 0.0000975039): stamping the trace in the constructor cost 12 (0.000234),
# so stamping inside the job cannot come back unnoticed.
#
# Usage: scripts/ci_counts.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# gate <workload> <gates>: runs the workload traced at seed 1 and checks
# <gates>, a JSON object mapping a metric name to [check, expected] with
# check "==" or "<".
gate() {
  local workload="$1" gates="$2" result
  echo "=== [counts] bench_e2e ${workload}, seed 1, traced ==="
  result="$(python3 bench_e2e/run.py --workload "$workload" --seed 1 \
    --seconds 1 --trace 1 | tail -n 1)"
  python3 - "$result" "$gates" <<'PY'
import json, sys

result = json.loads(sys.argv[1])
gates = json.loads(sys.argv[2])
metrics = {name: m["value"] for name, m in result["metrics"].items()}

failures = []
if not result["correct"] or result["failed"] != 0:
    failures.append(f"run not correct: {result['failed']} of "
                    f"{result['attempted']} operations failed")
for name, (check, expected) in gates.items():
    value = metrics.get(name)
    ok = value is not None and (value == expected if check == "==" else
                                value < expected)
    print(f"  {name:40} {value!s:>14}  (want {check} {expected})"
          f"{'' if ok else '  FAIL'}")
    if not ok:
        failures.append(f"{name} = {value}, want {check} {expected}")
if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)
print("counted work holds")
PY
}

gate offline_trace '{
  "relations.comparisons_per_pair": ["==", 142.3880345],
  "relations.pruned_comparisons_per_pair": ["==", 43.4943281],
  "relations.pruned_evaluated_frac": ["==", 0.3079052138],
  "relations.allocs_per_pair": ["<", 0.001],
  "model.stamp_allocs_per_event": ["<", 0.0000975039],
  "nonatomic.register_allocs_per_interval": ["<", 5.77]
}'
gate service_small '{
  "service.wire_bytes_per_frame": ["==", 18.30888136],
  "service.wire_bytes_per_event": ["==", 42.19625],
  "online.live_events_peak": ["==", 256000],
  "online.allocs_per_op": ["<", 1.45]
}'
gate service_durable '{
  "service.wire_bytes_per_frame": ["==", 28.71052446],
  "service.wire_bytes_per_event": ["==", 57.19147348],
  "store.journal_bytes_peak": ["==", 15098549],
  "online.live_events_peak": ["==", 14668],
  "online.allocs_per_op": ["<", 0.69],
  "store.syncs_per_frame": ["<", 0.25]
}'
gate explore_4p10m '{
  "explore.executed_per_class": ["==", 1],
  "explore.pruned_per_class": ["==", 0],
  "explore.dead_ends_per_class": ["==", 0]
}'

echo "=== [counts] done ==="
