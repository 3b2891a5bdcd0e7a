#include "relations/naive.hpp"

#include <ranges>
#include <span>

#include "support/contracts.hpp"

namespace syncon {

namespace {

// Evaluates the quantifier structure of `r` over the given x- and y-ranges
// of EventId with an arbitrary causality predicate.
template <typename Xs, typename Ys, typename Prec>
bool quantify(Relation r, const Xs& xs, const Ys& ys, Prec&& prec) {
  auto forall_x = [&](auto&& inner) {
    for (const EventId& x : xs) {
      if (!inner(x)) return false;
    }
    return true;
  };
  auto exists_x = [&](auto&& inner) {
    for (const EventId& x : xs) {
      if (inner(x)) return true;
    }
    return false;
  };
  auto forall_y = [&](auto&& inner) {
    for (const EventId& y : ys) {
      if (!inner(y)) return false;
    }
    return true;
  };
  auto exists_y = [&](auto&& inner) {
    for (const EventId& y : ys) {
      if (inner(y)) return true;
    }
    return false;
  };

  switch (r) {
    case Relation::R1:
    case Relation::R1p:
      return forall_x([&](EventId x) {
        return forall_y([&](EventId y) { return prec(x, y); });
      });
    case Relation::R2:
      return forall_x([&](EventId x) {
        return exists_y([&](EventId y) { return prec(x, y); });
      });
    case Relation::R2p:
      return exists_y([&](EventId y) {
        return forall_x([&](EventId x) { return prec(x, y); });
      });
    case Relation::R3:
      return exists_x([&](EventId x) {
        return forall_y([&](EventId y) { return prec(x, y); });
      });
    case Relation::R3p:
      return forall_y([&](EventId y) {
        return exists_x([&](EventId x) { return prec(x, y); });
      });
    case Relation::R4:
    case Relation::R4p:
      return exists_x([&](EventId x) {
        return exists_y([&](EventId y) { return prec(x, y); });
      });
  }
  SYNCON_ASSERT(false, "unreachable relation value");
  return false;
}

// a ≺ b (Strict) or a ⪯ b (Weak) via timestamps, one counted causality
// check per call.
auto stamped_prec(const Timestamps& ts, Semantics sem,
                  ComparisonCounter* counter) {
  return [&ts, sem, counter](EventId a, EventId b) {
    if (counter != nullptr) ++counter->causality_checks;
    return sem == Semantics::Strict ? ts.lt(a, b) : ts.leq(a, b);
  };
}

// The events of a Defn 2 proxy, read from its event's spans as a view.
auto proxy_events(const NonatomicEvent& ev, ProxyKind kind) {
  return std::views::transform(
      ev.spans(), [end = proxy_end(kind)](const NonatomicEvent::NodeSpan& s) {
        return EventId{s.process, s.*end};
      });
}

// The per-node extreme events to quantify over when restricting X × Y to
// proxies of proxies (end of §2.3 / Theorem 20 reasoning): a universally
// quantified x is hardest at the per-node greatest event, an existential x
// easiest at the per-node least, and dually for y.
std::vector<EventId> extremes(const NonatomicEvent& ev, bool greatest) {
  std::vector<EventId> out;
  out.reserve(ev.node_count());
  for (const ProcessId p : ev.node_set()) {
    out.push_back(greatest ? ev.greatest_on(p) : ev.least_on(p));
  }
  return out;
}

bool x_wants_greatest(Relation r) {
  // x is universally quantified in R1/R1'/R2; in R2' the x-quantifier is
  // also universal. Existential x (R3, R3', R4, R4') wants the least.
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R2:
    case Relation::R2p:
      return true;
    default:
      return false;
  }
}

bool y_wants_greatest(Relation r) {
  // y is existentially quantified in R2/R2'/R4/R4' (wants greatest);
  // universal y (R1, R1', R3, R3') wants the least.
  switch (r) {
    case Relation::R2:
    case Relation::R2p:
    case Relation::R4:
    case Relation::R4p:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool evaluate_oracle(Relation r, const NonatomicEvent& x,
                     const NonatomicEvent& y, const ReachabilityOracle& oracle,
                     Semantics sem) {
  SYNCON_REQUIRE(&oracle.execution() == &x.execution() &&
                     &x.execution() == &y.execution(),
                 "events/oracle of different executions");
  auto prec = [&](EventId a, EventId b) {
    return sem == Semantics::Strict ? oracle.lt(a, b) : oracle.leq(a, b);
  };
  return quantify(r, x.events(), y.events(), prec);
}

bool evaluate_naive(Relation r, const NonatomicEvent& x,
                    const NonatomicEvent& y, const Timestamps& ts,
                    Semantics sem, ComparisonCounter* counter) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution() &&
                     &x.execution() == &y.execution(),
                 "events/timestamps of different executions");
  const auto prec = stamped_prec(ts, sem, counter);
  return quantify(r, x.events(), y.events(), prec);
}

bool evaluate_proxy_naive(Relation r, const NonatomicEvent& x,
                          const NonatomicEvent& y, const Timestamps& ts,
                          Semantics sem, ComparisonCounter* counter) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution() &&
                     &x.execution() == &y.execution(),
                 "events/timestamps of different executions");
  const std::vector<EventId> xs = extremes(x, x_wants_greatest(r));
  const std::vector<EventId> ys = extremes(y, y_wants_greatest(r));
  const auto prec = stamped_prec(ts, sem, counter);
  return quantify(r, xs, ys, prec);
}

bool evaluate_naive(Relation r, const NonatomicEvent& x, ProxyKind kx,
                    const NonatomicEvent& y, ProxyKind ky,
                    const Timestamps& ts, Semantics sem,
                    ComparisonCounter* counter) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution() &&
                     &x.execution() == &y.execution(),
                 "events/timestamps of different executions");
  const auto prec = stamped_prec(ts, sem, counter);
  return quantify(r, proxy_events(x, kx), proxy_events(y, ky), prec);
}

}  // namespace syncon
