#!/usr/bin/env bash
# Runs the tier-1 test suite under every supported sanitizer configuration:
#   asan  — address+undefined over the full suite
#   tsan  — thread over the concurrency + fault + check + clocks + store +
#           explore suites, then thread_pool_test, service_daemon_test and
#           batch_evaluator_test again, 20 runs each unless one fails: a
#           race in the pool's fork-join handoff, or between the first
#           readers of a stampless evaluator and its one seal, shows up
#           only on some runs
# Each preset builds into its own binary dir (build-asan / build-tsan), so
# this composes with (and never dirties) the plain `build` tree.
#
# Usage: scripts/ci_sanitizers.sh [asan|tsan ...]   (default: both)
set -euo pipefail

cd "$(dirname "$0")/.."

run_preset() {
  local preset="$1"
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "=== [$preset] test ==="
  ctest --preset "$preset" -j "$(nproc)"
  if [ "$preset" = tsan ]; then
    echo "=== [$preset] repeat the pool's handoff and seal tests ==="
    ctest --preset tsan \
      -R '^(thread_pool_test|service_daemon_test|batch_evaluator_test)$' \
      --repeat until-fail:20
  fi
}

presets=("$@")
if [ "${#presets[@]}" -eq 0 ]; then
  presets=(asan tsan)
fi

for p in "${presets[@]}"; do
  case "$p" in
    asan|tsan) run_preset "$p" ;;
    *) echo "unknown preset '$p' (expected asan or tsan)" >&2; exit 2 ;;
  esac
done

echo "=== all sanitizer suites passed ==="
