#include "relations/sparse_cuts.hpp"

#include "support/contracts.hpp"

namespace syncon {

SparseEventCuts::SparseEventCuts(const Timestamps& ts,
                                 const NonatomicEvent& x)
    : ts_(&ts), event_(&x) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution(),
                 "timestamps belong to a different execution");
}

ClockValue SparseEventCuts::component(PosetCut which, ProcessId i,
                                      QueryCost* counter) const {
  const bool past = which == PosetCut::IntersectPast ||
                    which == PosetCut::UnionPast;
  const bool is_min = which == PosetCut::IntersectPast ||
                      which == PosetCut::IntersectFuture;
  bool first = true;
  ClockValue acc = 0;
  for (const ProcessId p : event_->node_set()) {
    const EventId extreme =
        is_min ? event_->least_on(p) : event_->greatest_on(p);
    ClockValue v;
    if (past) {
      v = ts_->forward_ref(extreme).at(i);
    } else {
      // Component of the e↑ cut: F(e)[i] + 1.
      v = ts_->future_start_ref(extreme).at(i) + 1;
    }
    if (counter != nullptr) ++counter->integer_comparisons;
    if (first) {
      acc = v;
      first = false;
    } else {
      acc = is_min ? std::min(acc, v) : std::max(acc, v);
    }
  }
  return acc;
}

VectorClock SparseEventCuts::counts(PosetCut which) const {
  VectorClock out(ts_->execution().process_count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.set(i, component(which, static_cast<ProcessId>(i)));
  }
  return out;
}

namespace {

// ¬≪ probe over the given nodes, with both cut components derived on
// demand.
bool violated_sparse(const SparseEventCuts& y_cuts, PosetCut down,
                     const SparseEventCuts& x_cuts, PosetCut up,
                     const std::vector<ProcessId>& nodes,
                     QueryCost& counter) {
  for (const ProcessId i : nodes) {
    const ClockValue d = y_cuts.component(down, i, &counter);
    const ClockValue u = x_cuts.component(up, i, &counter);
    ++counter.integer_comparisons;
    if (d >= u) return true;
  }
  return false;
}

}  // namespace

bool evaluate_fast_sparse(Relation r, const SparseEventCuts& x,
                          const SparseEventCuts& y,
                          QueryCost& counter) {
  SYNCON_REQUIRE(&x.timestamps() == &y.timestamps(),
                 "cuts of different executions");
  const NonatomicEvent& ex = x.event();
  const NonatomicEvent& ey = y.event();
  const bool x_side_smaller = ex.node_count() <= ey.node_count();

  auto all_x_pass = [&](PosetCut down) {
    for (const ProcessId i : ex.node_set()) {
      const ClockValue d = y.component(down, i, &counter);
      ++counter.integer_comparisons;
      if (d < ex.greatest_on(i).index + 1) return false;
    }
    return true;
  };
  auto all_y_pass = [&](PosetCut up) {
    for (const ProcessId j : ey.node_set()) {
      const ClockValue u = x.component(up, j, &counter);
      ++counter.integer_comparisons;
      if (ey.least_on(j).index + 1 < u) return false;
    }
    return true;
  };

  switch (r) {
    case Relation::R1:
    case Relation::R1p:
      return x_side_smaller ? all_x_pass(PosetCut::IntersectPast)
                            : all_y_pass(PosetCut::UnionFuture);
    case Relation::R2:
      return all_x_pass(PosetCut::UnionPast);
    case Relation::R2p:
      return violated_sparse(y, PosetCut::UnionPast, x, PosetCut::UnionFuture,
                             ey.node_set(), counter);
    case Relation::R3:
      return violated_sparse(y, PosetCut::IntersectPast, x,
                             PosetCut::IntersectFuture, ex.node_set(),
                             counter);
    case Relation::R3p:
      return all_y_pass(PosetCut::IntersectFuture);
    case Relation::R4:
    case Relation::R4p:
      return violated_sparse(y, PosetCut::UnionPast, x,
                             PosetCut::IntersectFuture,
                             x_side_smaller ? ex.node_set() : ey.node_set(),
                             counter);
  }
  SYNCON_ASSERT(false, "unreachable relation value");
  return false;
}

}  // namespace syncon
