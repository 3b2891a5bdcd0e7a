#include "relations/fast.hpp"

#include <algorithm>

#include "model/tree_clock.hpp"

namespace syncon {

FastDebugHooks& fast_debug_hooks() {
  static FastDebugHooks hooks;
  return hooks;
}

std::uint64_t theorem20_bound(Relation r, std::size_t n_x, std::size_t n_y) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R4:
    case Relation::R4p:
      return std::min(n_x, n_y);
    case Relation::R2:
    case Relation::R3:
      return n_x;
    case Relation::R2p:
    case Relation::R3p:
      return n_y;
  }
  return 0;
}

std::uint64_t theorem20_paper_bound(Relation r, std::size_t n_x,
                                    std::size_t n_y) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R2p:
    case Relation::R3:
    case Relation::R4:
    case Relation::R4p:
      return std::min(n_x, n_y);
    case Relation::R2:
      return n_x;
    case Relation::R3p:
      return n_y;
  }
  return 0;
}

// One compiled instance of the evaluator per supported backend.
template bool evaluate_fast<VectorClock>(Relation,
                                         const BasicEventCuts<VectorClock>&,
                                         const BasicEventCuts<VectorClock>&,
                                         ComparisonCounter&);
template bool evaluate_fast<TreeClock>(Relation,
                                       const BasicEventCuts<TreeClock>&,
                                       const BasicEventCuts<TreeClock>&,
                                       ComparisonCounter&);

}  // namespace syncon
