#include "online/online_evaluator.hpp"

#include "support/contracts.hpp"

namespace syncon {

namespace {

// Does `clock` know X̂'s event on node slot t? Components count the dummy,
// so event (p, i) is known iff clock[p] >= i + 1. One comparison.
bool knows(const VectorClock& clock, const ProxyView& x, std::size_t t,
           QueryCost& counter) {
  ++counter.integer_comparisons;
  return clock[x.nodes[t]] > x.index[t];
}

// Does `clock` know every / some event of X̂? Stops at the first slot that
// decides, one comparison per slot visited.
bool knows_all(const VectorClock& clock, const ProxyView& x,
               QueryCost& counter) {
  for (std::size_t t = 0; t < x.nodes.size(); ++t) {
    if (!knows(clock, x, t, counter)) return false;
  }
  return true;
}

bool knows_any(const VectorClock& clock, const ProxyView& x,
               QueryCost& counter) {
  for (std::size_t t = 0; t < x.nodes.size(); ++t) {
    if (knows(clock, x, t, counter)) return true;
  }
  return false;
}

// R(X̂, Ŷ) on two proxies (one event per node each), from past timestamps.
bool evaluate(Relation r, const ProxyView& x, const ProxyView& y,
              QueryCost& counter) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
      // ∀x ∀y: x ⪯ y ⟺ ∩⇓Ŷ (every y) knows every x.
      return knows_all(y.intersect_past, x, counter);
    case Relation::R2:
      // ∀x ∃y ⟺ ∪⇓Ŷ (some y) knows each x.
      return knows_all(y.union_past, x, counter);
    case Relation::R3:
      // ∃x ∀y ⟺ ∩⇓Ŷ knows some x.
      return knows_any(y.intersect_past, x, counter);
    case Relation::R4:
    case Relation::R4p:
      // ∃x ∃y ⟺ ∪⇓Ŷ knows some x.
      return knows_any(y.union_past, x, counter);
    case Relation::R2p:
      // ∃y ∀x: some y's clock knows every x.
      for (const VectorClock& clock : y.clock) {
        if (knows_all(clock, x, counter)) return true;
      }
      return false;
    case Relation::R3p:
      // ∀y ∃x: every y's clock knows some x.
      for (const VectorClock& clock : y.clock) {
        if (!knows_any(clock, x, counter)) return false;
      }
      return true;
  }
  SYNCON_ASSERT(false, "unreachable relation value");
  return false;
}

}  // namespace

RelationSet evaluate_online(RelationSet watched, const IntervalSummary& x,
                            const IntervalSummary& y,
                            QueryCost& counter) {
  SYNCON_REQUIRE(x.process_count == y.process_count,
                 "summaries from different systems");
  // A summary assembled from wire reports (degraded-mode feed) could in
  // principle carry malformed aggregates; fail loudly rather than index a
  // too-narrow past cut below.
  for (const IntervalSummary* s : {&x, &y}) {
    SYNCON_REQUIRE(s->intersect_past.size() == s->process_count &&
                       s->union_past.size() == s->process_count &&
                       s->least_union_past.size() == s->process_count &&
                       s->greatest_intersect_past.size() == s->process_count,
                   "summary past-cut width disagrees with its process count "
                   "(corrupt report feed?)");
  }
  RelationSet holding;
  for (const RelationId id : watched) {
    if (evaluate(id.relation, ProxyView(x, id.proxy_x),
                 ProxyView(y, id.proxy_y), counter)) {
      holding = holding | RelationSet::of(id);
    }
  }
  return holding;
}

bool evaluate_online(const RelationId& id, const IntervalSummary& x,
                     const IntervalSummary& y, QueryCost& counter) {
  return !evaluate_online(RelationSet::of(id), x, y, counter).empty();
}

bool evaluate_online(Relation r, const IntervalSummary& x,
                     const IntervalSummary& y, QueryCost& counter) {
  constexpr ProxyKind L = ProxyKind::Begin, U = ProxyKind::End;
  // Indexed by Relation: the proxies of X and Y whose events decide it.
  static constexpr ProxyKind kNatural[][2] = {
      {U, L}, {U, L}, {U, U}, {U, U}, {L, L}, {L, L}, {L, U}, {L, U}};
  const auto& proxies = kNatural[static_cast<std::size_t>(r)];
  return evaluate_online(RelationId{r, proxies[0], proxies[1]}, x, y, counter);
}

std::uint64_t online_cost_bound(Relation r, std::size_t n_x,
                                std::size_t n_y) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R2:
    case Relation::R3:
    case Relation::R4:
    case Relation::R4p:
      return n_x;
    case Relation::R2p:
    case Relation::R3p:
      return n_x * n_y;
  }
  return 0;
}

}  // namespace syncon
