#include "nonatomic/cut_timestamps.hpp"

#include <algorithm>
#include <vector>

#include "support/contracts.hpp"

namespace syncon {

namespace {

// Folds the stored stamps of two events on one process into a running meet
// (of `lo`) and join (of `hi`) of |P| components: the row-wide min and max,
// then the owner's components, which are stale in a shared row, from the
// views. The first pair is copied.
void fold(ClockValue* meet, ClockValue* join, const StampView& lo,
          const StampView& hi, bool first) {
  const ClockValue* a = lo.row().data();
  const ClockValue* b = hi.row().data();
  const std::size_t n = lo.size();
  const ProcessId owner = lo.owner();  // == hi.owner()
  const ClockValue own_lo = first ? lo.own() : std::min(meet[owner], lo.own());
  const ClockValue own_hi = first ? hi.own() : std::max(join[owner], hi.own());
  if (first) {
    std::copy(a, a + n, meet);
    std::copy(b, b + n, join);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      meet[i] = std::min(meet[i], a[i]);
      join[i] = std::max(join[i], b[i]);
    }
  }
  meet[owner] = own_lo;
  join[owner] = own_hi;
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

void compute_cut_counts(const Timestamps& ts,
                        std::span<const NonatomicEvent::NodeSpan> spans,
                        EventIndex NonatomicEvent::NodeSpan::*least,
                        EventIndex NonatomicEvent::NodeSpan::*greatest,
                        const std::array<ClockValue*, 4>& out) {
  SYNCON_REQUIRE(!spans.empty(), "a nonatomic event has at least one node");
  // Minima over ↓/↑ cuts are attained at the per-node least events and
  // maxima at the per-node greatest events (§2.3), so only extremes are
  // consulted.
  bool first = true;
  for (const NonatomicEvent::NodeSpan& s : spans) {
    const EventId lo{s.process, s.*least};
    const EventId hi{s.process, s.*greatest};
    fold(out[0], out[1], ts.forward_ref(lo), ts.forward_ref(hi), first);
    fold(out[2], out[3], ts.future_start_ref(lo), ts.future_start_ref(hi),
         first);
    first = false;
  }
  // The future cuts fold F(x); the e↑ counts are F(x) + 1 per component,
  // and the uniform +1 commutes with min/max — apply it once at the end.
  const std::size_t width = ts.execution().process_count();
  for (ClockValue* f : {out[2], out[3]}) {
    for (std::size_t i = 0; i < width; ++i) ++f[i];
  }
}

EventCuts::EventCuts(const Timestamps& ts, const NonatomicEvent& x)
    : ts_(&ts), event_(&x) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution(),
                 "timestamps belong to a different execution");
  std::array<std::vector<ClockValue>, 4> counts;
  for (std::vector<ClockValue>& c : counts) {
    c.resize(ts.execution().process_count());
  }
  compute_cut_counts(ts, x.spans(), &NonatomicEvent::NodeSpan::least,
                     &NonatomicEvent::NodeSpan::greatest,
                     {counts[0].data(), counts[1].data(), counts[2].data(),
                      counts[3].data()});
  for (std::size_t k = 0; k < counts.size(); ++k) {
    c_[k] = VectorClock(std::move(counts[k]));
  }
}

}  // namespace syncon
