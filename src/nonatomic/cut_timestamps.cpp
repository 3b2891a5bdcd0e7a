#include "nonatomic/cut_timestamps.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace syncon {

namespace {

// Fold one stored stamp into a cut timestamp: the row-wide meet or join,
// then the owner's component, which is stale in a shared row, from the view.
void fold_min(VectorClock& acc, const StampView& v) {
  const ClockValue own = std::min(acc.at(v.owner()), v.own());
  acc.merge_min(v.row());
  acc.set(v.owner(), own);
}

void fold_max(VectorClock& acc, const StampView& v) {
  const ClockValue own = std::max(acc.at(v.owner()), v.own());
  acc.merge_max(v.row());
  acc.set(v.owner(), own);
}

}  // namespace

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

EventCuts::EventCuts(const Timestamps& ts, const NonatomicEvent& x)
    : ts_(&ts), event_(&x) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution(),
                 "timestamps belong to a different execution");
  // Minima over ↓/↑ cuts are attained at the per-node least events and
  // maxima at the per-node greatest events (§2.3), so only extremes are
  // consulted.
  bool first = true;
  for (const NonatomicEvent::NodeSpan& s : x.spans()) {
    const EventId lo{s.process, s.least};
    const EventId hi{s.process, s.greatest};
    if (first) {
      c_[0] = ts.forward_ref(lo).dense();
      c_[1] = ts.forward_ref(hi).dense();
      c_[2] = ts.future_start_ref(lo).dense();
      c_[3] = ts.future_start_ref(hi).dense();
      first = false;
      continue;
    }
    fold_min(c_[0], ts.forward_ref(lo));
    fold_max(c_[1], ts.forward_ref(hi));
    fold_min(c_[2], ts.future_start_ref(lo));
    fold_max(c_[3], ts.future_start_ref(hi));
  }
  // The future cuts fold F(x); the e↑ counts are F(x) + 1 per component,
  // and the uniform +1 commutes with min/max — apply it once at the end.
  for (VectorClock* f : {&c_[2], &c_[3]}) {
    for (std::size_t i = 0; i < f->size(); ++i) f->set(i, f->at(i) + 1);
  }
}

}  // namespace syncon
