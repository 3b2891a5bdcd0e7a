#!/usr/bin/env bash
# Counted-work gate of the offline query core: runs the offline_trace
# workload of bench_e2e at seed 1 with per-layer metrics and fails unless
# the run is correct with no failed operation, the sweeps do exactly the
# pinned number of Theorem 20 comparisons and relation evaluations, and the
# sweeps allocate (next to) nothing per pair. Timings are not gated: they are
# advisory on a shared host, while these counts repeat exactly for a seed.
#
# Usage: scripts/ci_offline_counts.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== [offline-counts] bench_e2e offline_trace, seed 1, traced ==="
result="$(python3 bench_e2e/run.py --workload offline_trace --seed 1 \
  --seconds 1 --trace 1 | tail -n 1)"

python3 - "$result" <<'PY'
import json, sys

result = json.loads(sys.argv[1])
metrics = {name: m["value"] for name, m in result["metrics"].items()}

# name -> (check, expected): the pinned counts at seed 1.
gates = {
    "relations.comparisons_per_pair": ("==", 142.3880345),
    "relations.pruned_comparisons_per_pair": ("==", 43.4943281),
    "relations.pruned_evaluated_frac": ("==", 0.3079052138),
    "relations.allocs_per_pair": ("<", 0.001),
}

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

echo "=== [offline-counts] done ==="
