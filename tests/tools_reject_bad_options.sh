#!/bin/sh
# Every tool must report a malformed or out-of-range option as one
# "<tool>: <message>" line on stderr and exit with status 2 — never abort,
# and never run on a value it misread.
#
# Usage: tools_reject_bad_options.sh <syncon_check> <syncon_explore>
#                                    <syncon_metricsd> <syncon_monitord>
check="$1" explore="$2" metricsd="$3" monitord="$4"
failures=0

# expect_rejected <tool> <args...>
expect_rejected() {
  tool="$1"
  shift
  name="$(basename "$tool")"
  err="$("$tool" "$@" 2>&1 >/dev/null)"
  status=$?
  lines="$(printf '%s\n' "$err" | wc -l)"
  case "$err" in
    "$name: "?*) prefixed=yes ;;
    *) prefixed=no ;;
  esac
  if [ "$status" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$prefixed" != yes ]; then
    echo "FAIL: $name $* -> status $status, stderr: $err"
    failures=$((failures + 1))
  else
    echo "ok:   $name $* -> $err"
  fi
}

for tool in "$check" "$explore" "$metricsd" "$monitord"; do
  expect_rejected "$tool" --seed=abc
done
# A small run, so that an option misread as valid finishes quickly.
for option in --shards=0 --queue-capacity=0 --window=0 --tenants=0 \
    --processes=1 --action-every=0 --report-drop=2 --report-drop=0.1junk \
    --port=70000; do
  expect_rejected "$monitord" --no-serve --tenants=2 "$option"
done
expect_rejected "$metricsd" --cycles=4 --port=70000
expect_rejected "$explore" --procs=0

[ "$failures" -eq 0 ]
