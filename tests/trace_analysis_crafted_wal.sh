#!/bin/sh
# trace_analysis --wal-replay over a crafted WAL directory must exit on its
# own, never by a signal, and report what recovery cut. Both crafted files
# hold one frame whose ten-byte length prefix is 2^64 - 1: a reader that
# computes `length + 4` in 64 bits gets 3 and reads far past the buffer.
# Each run gets a fresh directory, since recovery truncates what it reads.
#
# Usage: trace_analysis_crafted_wal.sh <trace_analysis>
analysis="$1"
dir="$(mktemp -d)" || exit 1
trap 'rm -rf "$dir"' EXIT
frame='\377\377\377\377\377\377\377\377\377\001\000\000\000\000\000\000\000\000'
failures=0

# expect_recovered <name> <file> <magic> <expected output>
expect_recovered() {
  mkdir "$dir/$1"
  { printf "$3"; printf "$frame"; } > "$dir/$1/$2"
  out="$("$analysis" --generate --processes 4 --events 8 \
      --wal-replay "$dir/$1" 2>&1)"
  status=$?
  if [ "$status" -ge 128 ]; then
    echo "FAIL: $1 -> killed by signal $((status - 128))"
    failures=$((failures + 1))
  elif ! printf '%s\n' "$out" | grep -q "$4"; then
    echo "FAIL: $1 -> status $status without \"$4\" in: $out"
    failures=$((failures + 1))
  else
    echo "ok:   $1 -> status $status, $4"
  fi
}

expect_recovered segment wal-000000000000 '' 'truncated yes'
expect_recovered snapshot snap-000000000000 'SYsnap\001' '1 discarded'
[ "$failures" -eq 0 ]
