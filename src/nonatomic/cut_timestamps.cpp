#include "nonatomic/cut_timestamps.hpp"

#include "model/tree_clock.hpp"
#include "support/contracts.hpp"

namespace syncon {

const char* to_string(PosetCut which) {
  switch (which) {
    case PosetCut::IntersectPast: return "C1 (∩⇓X)";
    case PosetCut::UnionPast: return "C2 (∪⇓X)";
    case PosetCut::IntersectFuture: return "C3 (∩⇑X)";
    case PosetCut::UnionFuture: return "C4 (∪⇑X)";
  }
  return "?";
}

VectorClock poset_cut_counts_reference(const Timestamps& ts,
                                       const NonatomicEvent& x,
                                       PosetCut which) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution(),
                 "timestamps belong to a different execution");
  const bool past = which == PosetCut::IntersectPast ||
                    which == PosetCut::UnionPast;
  const bool is_min = which == PosetCut::IntersectPast ||
                      which == PosetCut::IntersectFuture;
  VectorClock acc;
  bool first = true;
  for (const EventId& e : x.events()) {
    VectorClock c = past ? ts.past_cut_counts(e) : ts.future_cut_counts(e);
    if (first) {
      acc = std::move(c);
      first = false;
    } else if (is_min) {
      acc.merge_min(c);
    } else {
      acc.merge_max(c);
    }
  }
  return acc;
}

// One compiled instance per supported backend (see model/timestamps.cpp).
template class BasicEventCuts<VectorClock>;
template class BasicEventCuts<TreeClock>;

}  // namespace syncon
