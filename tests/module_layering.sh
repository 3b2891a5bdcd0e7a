#!/bin/sh
# Every library links only downward (DESIGN.md §4). Fails, naming each
# offending line, when
#   - an engine layer (support … service, monitor) includes a sim/ header;
#   - obs includes a model/ or nonatomic/ header other than the header-only
#     model/types.hpp;
#   - the service or monitor library links syncon_sim;
#   - the obs library links syncon_model or syncon_nonatomic.
#
#   sh tests/module_layering.sh <repository root>
cd "${1:?usage: module_layering.sh <repository root>}" || exit 1
status=0

# report <what> <hits>: one failure line per hit, none when <hits> is empty.
report() {
  [ -n "$2" ] || return 0
  printf '%s\n' "$2" | while IFS= read -r hit; do
    echo "module_layering: $1: $hit"
  done
  status=1
}

for layer in support obs model cuts nonatomic timing relations online store \
             service monitor; do
  [ -d "src/$layer" ] || report "missing layer" "src/$layer"
  report "a sim/ header below the simulator" \
    "$(grep -rn '#include "sim/' "src/$layer")"
done
report "obs includes a layer above it" \
  "$(grep -rnE '#include "(model|nonatomic)/' src/obs |
     grep -v '#include "model/types.hpp"')"
for lib in service monitor; do
  report "links the simulator" \
    "$(grep -Hnw syncon_sim "src/$lib/CMakeLists.txt")"
done
report "obs links a layer above it" \
  "$(grep -HnwE 'syncon_(model|nonatomic)' src/obs/CMakeLists.txt)"

[ "$status" -eq 0 ] && echo "module_layering: every library links downward"
exit "$status"
