#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <random>
#include <set>

#include "counting_new.hpp"
#include "helpers.hpp"
#include "model/timestamps.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "online/interval_tracker.hpp"
#include "online/online_evaluator.hpp"
#include "online/online_system.hpp"
#include "relations/naive.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

using testing::property_sweep;

TEST(OnlineSystemTest, ClocksMatchHandComputation) {
  OnlineSystem sys(2);
  const EventId a1 = sys.local(0);
  EXPECT_EQ(sys.clock_of(a1), VectorClock({2, 1}));
  const WireMessage m = sys.send(0);
  EXPECT_EQ(m.clock, VectorClock({3, 1}));
  const EventId b1 = sys.local(1);
  EXPECT_EQ(sys.clock_of(b1), VectorClock({1, 2}));
  const EventId b2 = sys.deliver(1, m);
  EXPECT_EQ(sys.clock_of(b2), VectorClock({3, 3}));
  EXPECT_EQ(sys.current_clock(1), VectorClock({3, 3}));
  EXPECT_EQ(sys.executed(0), 2u);
  EXPECT_EQ(sys.executed(1), 2u);
  EXPECT_EQ(sys.total_executed(), 4u);
}

TEST(OnlineSystemTest, InitialClockIsBottom) {
  OnlineSystem sys(3);
  EXPECT_EQ(sys.current_clock(1), VectorClock({0, 1, 0}));
}

TEST(OnlineSystemTest, RejectsSelfDelivery) {
  OnlineSystem sys(2);
  const WireMessage m = sys.send(0);
  EXPECT_THROW(sys.deliver(0, m), ContractViolation);
  // The message mentions who tried to self-deliver what.
  try {
    sys.deliver(0, m);
    FAIL() << "self-delivery must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("own message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("0:1"), std::string::npos);
  }
}

TEST(OnlineSystemTest, RejectsForeignOrCorruptMessages) {
  OnlineSystem sys(2);
  // Source process beyond process_count(), with a descriptive message.
  try {
    sys.deliver(0, WireMessage{EventId{7, 1}, VectorClock({1, 1})});
    FAIL() << "unknown source process must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("unknown process"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2 processes"), std::string::npos);
  }
  // Receiver id beyond process_count().
  const WireMessage m = sys.send(0);
  EXPECT_THROW(sys.deliver(9, m), ContractViolation);
  // Clock of the wrong width.
  EXPECT_THROW(sys.deliver(1, WireMessage{EventId{0, 1}, VectorClock({1})}),
               ContractViolation);
  // Dummy source index.
  EXPECT_THROW(sys.deliver(1, WireMessage{EventId{0, 0}, VectorClock({1, 1})}),
               ContractViolation);
  // A clock claiming receiver events that never executed (corruption).
  EXPECT_THROW(
      sys.deliver(1, WireMessage{EventId{0, 1}, VectorClock({2, 99})}),
      ContractViolation);
}

TEST(OnlineSystemTest, DeliverIsIdempotent) {
  OnlineSystem sys(2);
  const WireMessage m = sys.send(0);
  const EventId first = sys.deliver(1, m);
  const std::size_t total = sys.total_executed();
  // Redelivery (any number of times) executes nothing and returns the
  // original receive event.
  EXPECT_EQ(sys.deliver(1, m), first);
  EXPECT_EQ(sys.deliver(1, m), first);
  EXPECT_EQ(sys.total_executed(), total);
  EXPECT_EQ(sys.duplicates_suppressed(), 2u);
  EXPECT_TRUE(sys.already_delivered(1, m.source));
  EXPECT_EQ(sys.current_clock(1), sys.clock_of(first));
}

TEST(OnlineSystemTest, StaleTimestampedDuplicateDoesNotThrow) {
  // A duplicate arriving after later events carries an old send time; the
  // dedup path must answer before time-monotonicity checks can object.
  OnlineSystem sys(2);
  const WireMessage m = sys.send(0, 100);
  const EventId first = sys.deliver(1, m, 200);
  sys.local(1, 300);
  EXPECT_EQ(sys.deliver(1, m, 150), first);
}

TEST(OnlineSystemTest, DeliverAllMergesEverything) {
  OnlineSystem sys(3);
  const WireMessage m1 = sys.send(1);
  const WireMessage m2 = sys.send(2);
  const std::vector<WireMessage> msgs{m1, m2};
  const EventId joined = sys.deliver_all(0, msgs);
  EXPECT_EQ(sys.clock_of(joined), VectorClock({2, 2, 2}));
}

TEST(OnlineSystemTest, DeliverAllSuppressesWithinBatchDuplicates) {
  // The same wire message twice in one gather (an at-least-once transport
  // redelivered it into the same batch): one receive, one suppression.
  OnlineSystem sys(3);
  const WireMessage m1 = sys.send(1);
  const WireMessage m2 = sys.send(2);
  const std::vector<WireMessage> msgs{m1, m2, m1};
  const EventId joined = sys.deliver_all(0, msgs);
  EXPECT_EQ(sys.clock_of(joined), VectorClock({2, 2, 2}));
  EXPECT_EQ(sys.duplicates_suppressed(), 1u);
  EXPECT_EQ(sys.executed(0), 1u);
}

TEST(OnlineSystemTest, DeliverAllSuppressesAgainstEarlierDeliveries) {
  // A batch overlapping an earlier deliver: only the fresh message merges.
  OnlineSystem sys(3);
  const WireMessage m1 = sys.send(1);
  const WireMessage m2 = sys.send(2);
  sys.deliver(0, m1);
  const std::vector<WireMessage> msgs{m1, m2};
  const EventId joined = sys.deliver_all(0, msgs);
  EXPECT_EQ(sys.clock_of(joined), VectorClock({3, 2, 2}));
  EXPECT_EQ(sys.duplicates_suppressed(), 1u);
  EXPECT_EQ(sys.executed(0), 2u);  // two receive events, no third
}

TEST(OnlineSystemTest, DeliverAllOfOnlyDuplicatesIsANoOp) {
  OnlineSystem sys(3);
  const WireMessage m1 = sys.send(1);
  const WireMessage m2 = sys.send(2);
  const std::vector<WireMessage> batch{m1, m2};
  const EventId joined = sys.deliver_all(0, batch);
  const std::size_t total = sys.total_executed();
  // Redelivering the whole batch executes nothing and answers with the
  // receive that first consumed the batch's first source.
  const std::vector<WireMessage> again{m2, m1};
  EXPECT_EQ(sys.deliver_all(0, again), joined);
  EXPECT_EQ(sys.total_executed(), total);
  EXPECT_EQ(sys.duplicates_suppressed(), 2u);
}

TEST(OnlineSystemTest, ToExecutionPreservesStructure) {
  OnlineSystem sys(2);
  sys.local(0);
  const WireMessage m = sys.send(0);
  sys.local(1);
  sys.deliver(1, m);
  const Execution exec = sys.to_execution();
  EXPECT_EQ(exec.real_count(0), 2u);
  EXPECT_EQ(exec.real_count(1), 2u);
  ASSERT_EQ(exec.messages().size(), 1u);
  EXPECT_EQ(exec.messages()[0].source, (EventId{0, 2}));
  EXPECT_EQ(exec.messages()[0].target, (EventId{1, 2}));
}

TEST(IntervalTrackerTest, AccumulatesAggregates) {
  OnlineSystem sys(2);
  IntervalTracker tracker("act");
  const EventId a1 = sys.local(0);
  tracker.add(sys, a1);
  const WireMessage m = sys.send(0);
  tracker.add(sys, m.source);
  const EventId b1 = sys.deliver(1, m);
  tracker.add(sys, b1);
  const IntervalSummary s = tracker.summary();
  EXPECT_EQ(s.label, "act");
  EXPECT_EQ(s.event_count, 3u);
  EXPECT_EQ(s.nodes, (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(s.least_index[0], 1u);
  EXPECT_EQ(s.greatest_index[0], 2u);
  EXPECT_EQ(s.least_index[1], 1u);
  // ∩⇓ = min(T(a1), T(b1)) = min([2,1],[3,2]) = [2,1].
  EXPECT_EQ(s.intersect_past, VectorClock({2, 1}));
  // ∪⇓ = max(T(send), T(b1)) = max([3,1],[3,2]) = [3,2].
  EXPECT_EQ(s.union_past, VectorClock({3, 2}));
  // ∪⇓L = max(T(a1), T(b1)) = [3,2]; ∩⇓U = min(T(send), T(b1)) = [3,1].
  EXPECT_EQ(s.least_union_past, VectorClock({3, 2}));
  EXPECT_EQ(s.greatest_intersect_past, VectorClock({3, 1}));
}

TEST(IntervalTrackerTest, NodeSlotLookup) {
  OnlineSystem sys(4);
  IntervalTracker tracker("t");
  tracker.add(sys, sys.local(1));
  tracker.add(sys, sys.local(3));
  const IntervalSummary s = tracker.summary();
  EXPECT_EQ(s.node_slot(1), 0u);
  EXPECT_EQ(s.node_slot(3), 1u);
  EXPECT_EQ(s.node_slot(0), static_cast<std::size_t>(-1));
  EXPECT_EQ(s.node_slot(2), static_cast<std::size_t>(-1));
}

TEST(IntervalTrackerTest, ToleratesOutOfOrderAddsButRejectsDuplicates) {
  // Fault tolerance: a monitor behind a reordering channel folds events in
  // arrival order, so the tracker accepts any order — the per-node extremes
  // come out the same. Duplicates, however, are a caller bug (dedup happens
  // upstream) and are rejected.
  OnlineSystem sys(1);
  const EventId e1 = sys.local(0);
  const EventId e2 = sys.local(0);
  const EventId e3 = sys.local(0);
  IntervalTracker reversed("t");
  reversed.add(sys, e3);
  reversed.add(sys, e1);
  reversed.add(sys, e2);  // interior event: folds without touching extremes
  EXPECT_THROW(reversed.add(sys, e1), ContractViolation);
  EXPECT_THROW(reversed.add(sys, e3), ContractViolation);

  IntervalTracker forward("t");
  forward.add(sys, e1);
  forward.add(sys, e2);
  forward.add(sys, e3);
  const IntervalSummary a = reversed.summary(), b = forward.summary();
  EXPECT_EQ(a.least_index, b.least_index);
  EXPECT_EQ(a.greatest_index, b.greatest_index);
  EXPECT_EQ(a.intersect_past, b.intersect_past);
  EXPECT_EQ(a.union_past, b.union_past);
}

TEST(IntervalTrackerTest, EmptySummaryRejected) {
  IntervalTracker tracker("t");
  EXPECT_THROW(tracker.summary(), ContractViolation);
}

TEST(OnlineSystemTest, PhysicalTimeStampsAreTracked) {
  OnlineSystem sys(2);
  const EventId a = sys.local(0, 100);
  const WireMessage m = sys.send(0, 250);
  const EventId b = sys.deliver(1, m, 900);
  EXPECT_EQ(sys.time_of(a), 100);
  EXPECT_EQ(sys.time_of(m.source), 250);
  EXPECT_EQ(sys.time_of(b), 900);
  // Untimed events carry the sentinel.
  const EventId c = sys.local(1);
  EXPECT_EQ(sys.time_of(c), OnlineSystem::kNoTime);
}

TEST(OnlineSystemTest, RejectsNonMonotoneLocalTime) {
  OnlineSystem sys(1);
  sys.local(0, 100);
  EXPECT_THROW(sys.local(0, 100), ContractViolation);
  EXPECT_THROW(sys.local(0, 50), ContractViolation);
  EXPECT_NO_THROW(sys.local(0, 101));
}

TEST(IntervalTrackerTest, CapturesPhysicalSpan) {
  OnlineSystem sys(2);
  IntervalTracker tracker("t");
  tracker.add(sys, sys.local(0, 100));
  const WireMessage m = sys.send(0, 300);
  tracker.add(sys, m.source);
  tracker.add(sys, sys.deliver(1, m, 750));
  const IntervalSummary s = tracker.summary();
  EXPECT_TRUE(s.fully_timed);
  EXPECT_EQ(s.start_time, 100);
  EXPECT_EQ(s.end_time, 750);
}

TEST(IntervalTrackerTest, PartiallyTimedIntervalsAreFlagged) {
  OnlineSystem sys(1);
  IntervalTracker tracker("t");
  tracker.add(sys, sys.local(0, 5));
  tracker.add(sys, sys.local(0));  // untimed
  const IntervalSummary s = tracker.summary();
  EXPECT_FALSE(s.fully_timed);
  EXPECT_EQ(s.start_time, 5);
}

TEST(OnlineCostBoundTest, QuadraticOnlyForPrimedExistentials) {
  EXPECT_EQ(online_cost_bound(Relation::R1, 5, 7), 5u);
  EXPECT_EQ(online_cost_bound(Relation::R2, 5, 7), 5u);
  EXPECT_EQ(online_cost_bound(Relation::R3, 5, 7), 5u);
  EXPECT_EQ(online_cost_bound(Relation::R4, 5, 7), 5u);
  EXPECT_EQ(online_cost_bound(Relation::R2p, 5, 7), 35u);
  EXPECT_EQ(online_cost_bound(Relation::R3p, 5, 7), 35u);
}

TEST(OnlineEvaluatorTest, RejectsMalformedSummaries) {
  OnlineSystem sys(2);
  IntervalTracker tx("X"), ty("Y");
  tx.add(sys, sys.local(0));
  ty.add(sys, sys.local(1));
  const IntervalSummary good_x = tx.summary();
  IntervalSummary bad_y = ty.summary();
  QueryCost counter;
  // Mismatched process counts are two different systems.
  bad_y.process_count = 3;
  EXPECT_THROW(evaluate_online(Relation::R1, good_x, bad_y, counter),
               ContractViolation);
  // A past cut narrower than the claimed process count is a corrupt
  // aggregate; it must fail loudly, not index out of bounds.
  bad_y = ty.summary();
  bad_y.intersect_past = VectorClock(1);
  EXPECT_THROW(evaluate_online(Relation::R1, good_x, bad_y, counter),
               ContractViolation);
  // The proxy cuts only some members read are checked all the same.
  bad_y = ty.summary();
  bad_y.least_union_past = VectorClock(1);
  EXPECT_THROW(evaluate_online(Relation::R1, good_x, bad_y, counter),
               ContractViolation);
  bad_y = ty.summary();
  bad_y.greatest_intersect_past = VectorClock(1);
  EXPECT_THROW(evaluate_online(RelationSet::all(), good_x, bad_y, counter),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Property sweep: replaying an offline execution online reproduces the
// offline timestamps exactly, and online evaluation agrees with the
// definitional semantics.
// ---------------------------------------------------------------------------

class OnlinePropertyTest : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(OnlinePropertyTest, ReplayReproducesOfflineClocks) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  const OnlineSystem sys = replay(exec);
  for (const EventId& e : exec.topological_order()) {
    ASSERT_EQ(sys.clock_of(e), ts.forward(e)) << e.process << ":" << e.index;
  }
}

TEST_P(OnlinePropertyTest, ToExecutionRoundTripsReplay) {
  const Execution exec = generate_execution(GetParam());
  const OnlineSystem sys = replay(exec);
  const Execution back = sys.to_execution();
  ASSERT_EQ(back.process_count(), exec.process_count());
  ASSERT_EQ(back.total_real_count(), exec.total_real_count());
  const Timestamps ts_a(exec), ts_b(back);
  for (const EventId& e : exec.topological_order()) {
    ASSERT_EQ(ts_a.forward(e), ts_b.forward(e));
  }
}

TEST_P(OnlinePropertyTest, ProxyPastCutsMatchEventCuts) {
  // The summary's four past cuts are the C1/C2 cuts of its two Defn 2
  // proxies, and a ProxyView reads each proxy's events and cuts.
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  const OnlineSystem sys = replay(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xc075);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2 + 1);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 20; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    IntervalTracker tracker("X");
    for (const EventId& e : x.events()) tracker.add(sys, e);
    const IntervalSummary s = tracker.summary();
    const NonatomicEvent lx = x.proxy_per_node(ProxyKind::Begin);
    const NonatomicEvent ux = x.proxy_per_node(ProxyKind::End);
    const EventCuts l(ts, lx), u(ts, ux);
    ASSERT_EQ(s.intersect_past, l.intersect_past()) << "trial " << trial;
    ASSERT_EQ(s.least_union_past, l.union_past()) << "trial " << trial;
    ASSERT_EQ(s.greatest_intersect_past, u.intersect_past())
        << "trial " << trial;
    ASSERT_EQ(s.union_past, u.union_past()) << "trial " << trial;
    for (const ProxyKind kind : {ProxyKind::Begin, ProxyKind::End}) {
      const ProxyView view(s, kind);
      const EventCuts& cuts = kind == ProxyKind::Begin ? l : u;
      ASSERT_EQ(view.intersect_past, cuts.intersect_past());
      ASSERT_EQ(view.union_past, cuts.union_past());
      ASSERT_EQ(view.nodes.size(), cuts.event().size());
      for (std::size_t t = 0; t < view.nodes.size(); ++t) {
        const EventId e{view.nodes[t], view.index[t]};
        ASSERT_TRUE(cuts.event().contains(e)) << to_string(e);
        ASSERT_EQ(view.clock[t], ts.forward(e)) << to_string(e);
      }
    }
  }
}

TEST_P(OnlinePropertyTest, OnlineEvaluationMatchesWeakNaive) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  const OnlineSystem sys = replay(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xfeed);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2 + 1);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 40; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    IntervalTracker tx("X"), ty("Y");
    for (const EventId& e : x.events()) tx.add(sys, e);
    for (const EventId& e : y.events()) ty.add(sys, e);
    const IntervalSummary sx = tx.summary();
    const IntervalSummary sy = ty.summary();
    for (const Relation r : kAllRelations) {
      QueryCost counter;
      ASSERT_EQ(evaluate_online(r, sx, sy, counter),
                evaluate_naive(r, x, y, ts, Semantics::Weak))
          << to_string(r) << " trial " << trial;
      ASSERT_LE(counter.integer_comparisons,
                online_cost_bound(r, sx.node_count(), sy.node_count()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OnlinePropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

// ---------------------------------------------------------------------------
// The log's flat columns against a dense model that keeps one VectorClock
// per event, the layout the columns replace.
// ---------------------------------------------------------------------------

// What the log must answer, stored the naive way.
struct DenseLog {
  explicit DenseLog(std::size_t n)
      : clocks(n), times(n), sources(n), receipts(n), consumed(n), base(n, 0) {}

  std::size_t n() const { return clocks.size(); }
  EventIndex executed(ProcessId p) const {
    return static_cast<EventIndex>(clocks[p].size());
  }
  const VectorClock& clock(EventId e) const {
    return clocks[e.process][e.index - 1];
  }
  VectorClock current(ProcessId p) const {
    if (!clocks[p].empty()) return clocks[p].back();
    VectorClock bottom(n(), 0);
    bottom.set(p, 1);
    return bottom;
  }
  // The Fidge/Mattern step: join the messages' clocks, lift every component
  // to at least 1, tick the own one.
  VectorClock next_clock(ProcessId p,
                         const std::vector<WireMessage>& messages) const {
    VectorClock c = current(p);
    for (const WireMessage& m : messages) c.merge_max(m.clock);
    for (std::size_t i = 0; i < n(); ++i) {
      if (c.at(i) == 0) c.set(i, 1);
    }
    c.tick(p);
    return c;
  }
  EventId append(ProcessId p, VectorClock clock, std::vector<EventId> srcs,
                 std::int64_t when) {
    const EventId e{p, executed(p) + 1};
    std::sort(srcs.begin(), srcs.end());
    for (const EventId& s : srcs) {
      consumed[p].insert(s);
      receipts[p].emplace(s, e.index);
    }
    clocks[p].push_back(std::move(clock));
    times[p].push_back(when);
    sources[p].push_back(std::move(srcs));
    return e;
  }
  EventId duplicate(ProcessId p, EventId source) const {
    const auto it = receipts[p].find(source);
    return EventId{p, it == receipts[p].end() ? EventIndex{0} : it->second};
  }
  EventId deliver_all(ProcessId p, const std::vector<WireMessage>& batch,
                      std::int64_t when) {
    std::vector<WireMessage> fresh;
    std::set<EventId> seen;
    for (const WireMessage& m : batch) {
      if (consumed[p].count(m.source) == 0 && seen.insert(m.source).second) {
        fresh.push_back(m);
      }
    }
    if (fresh.empty()) return duplicate(p, batch.front().source);
    return append(p, next_clock(p, fresh),
                  std::vector<EventId>(seen.begin(), seen.end()), when);
  }
  std::size_t compact(const VectorClock& watermark) {
    std::size_t reclaimed = 0;
    for (ProcessId p = 0; p < n(); ++p) {
      const EventIndex target =
          std::min<EventIndex>(watermark.at(p), executed(p) + 1);
      if (target <= base[p] + 1) continue;
      reclaimed += target - 1 - base[p];
      base[p] = target - 1;
    }
    if (reclaimed == 0) return 0;
    for (auto& per_receiver : receipts) {
      std::erase_if(per_receiver, [&](const auto& r) {
        return r.first.index <= base[r.first.process];
      });
    }
    return reclaimed;
  }

  std::vector<std::vector<VectorClock>> clocks;
  std::vector<std::vector<std::int64_t>> times;
  std::vector<std::vector<std::vector<EventId>>> sources;
  std::vector<std::map<EventId, EventIndex>> receipts;  // per receiver
  std::vector<std::set<EventId>> consumed;              // per receiver
  std::vector<EventIndex> base;                         // reclaimed prefix
};

// Compares every read of the log with the model. A system rebuilt from a
// checkpoint forgives the whole cut, so its dedup answers differ by design
// and `dedup` skips them.
void expect_log_matches(const OnlineSystem& sys, const DenseLog& model,
                        bool dedup) {
  std::size_t live = 0;
  VectorClock frontier(model.n(), 0);
  RetransmitRequest request;
  std::vector<WireMessage> expected_replies;
  for (ProcessId p = 0; p < model.n(); ++p) {
    const EventIndex executed = model.executed(p);
    const EventIndex base = model.base[p];
    ASSERT_EQ(sys.executed(p), executed);
    ASSERT_EQ(sys.reclaimed_before(p), base);
    ASSERT_EQ(sys.current_clock(p), model.current(p));
    frontier.set(p, executed + 1);
    live += executed - base;
    if (base > 0) {
      expected_replies.push_back({EventId{p, base}, model.clock({p, base})});
    }
    for (EventIndex i = 1; i <= executed + 1; ++i) {
      request.events.push_back(EventId{p, i});
    }
    for (EventIndex i = 1; i <= executed; ++i) {
      const EventId e{p, i};
      const WireMessage wire = sys.wire_of(e);
      if (i <= base) {
        ASSERT_FALSE(sys.is_live(e));
        ASSERT_EQ(wire.source, (EventId{p, base}));
        ASSERT_EQ(wire.clock, model.clock({p, base}));
        continue;
      }
      ASSERT_TRUE(sys.is_live(e));
      ASSERT_EQ(sys.clock_of(e).dense(), model.clock(e)) << to_string(e);
      ASSERT_EQ(wire.source, e);
      ASSERT_EQ(wire.clock, model.clock(e));
      ASSERT_EQ(sys.time_of(e), model.times[p][i - 1]);
      const std::span<const EventId> sources = sys.sources_of(e);
      ASSERT_EQ(std::vector<EventId>(sources.begin(), sources.end()),
                model.sources[p][i - 1])
          << to_string(e);
      expected_replies.push_back({e, model.clock(e)});
    }
    if (!dedup) continue;
    for (ProcessId q = 0; q < model.n(); ++q) {
      if (q == p) continue;
      for (EventIndex i = 1; i <= model.executed(q) + 1; ++i) {
        ASSERT_EQ(sys.already_delivered(p, EventId{q, i}),
                  model.consumed[p].count(EventId{q, i}) != 0);
      }
    }
  }
  ASSERT_EQ(sys.live_log_events(), live);
  ASSERT_EQ(sys.snapshot(), frontier);
  const std::vector<WireMessage> replies = sys.serve(request);
  ASSERT_EQ(replies.size(), expected_replies.size());
  for (std::size_t k = 0; k < replies.size(); ++k) {
    ASSERT_EQ(replies[k].source, expected_replies[k].source);
    ASSERT_EQ(replies[k].clock, expected_replies[k].clock);
  }
  if (sys.reclaimed_events() == 0) {
    const Execution exec = sys.to_execution();
    const Timestamps ts(exec);
    for (ProcessId p = 0; p < model.n(); ++p) {
      ASSERT_EQ(exec.real_count(p), model.executed(p));
      for (EventIndex i = 1; i <= model.executed(p); ++i) {
        const EventId e{p, i};
        ASSERT_EQ(ts.forward_ref(e), model.clock(e)) << to_string(e);
        const auto incoming = exec.incoming(e);
        std::vector<EventId> sorted(incoming.begin(), incoming.end());
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(sorted, model.sources[p][i - 1]);
      }
    }
  }
}

TEST(OnlineLogTest, ColumnsMatchADenseModel) {
  constexpr std::size_t n = 3;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto pick = [&](std::size_t k) {
      return static_cast<std::size_t>(rng() % k);
    };
    OnlineSystem sys(n);
    DenseLog model(n);
    std::vector<WireMessage> sent;
    std::int64_t now = 0;
    for (int step = 0; step < 300; ++step) {
      const auto p = static_cast<ProcessId>(pick(n));
      const std::int64_t when =
          pick(4) == 0 ? OnlineSystem::kNoTime
                       : (now += 1 + static_cast<std::int64_t>(pick(3)));
      std::vector<WireMessage> inbound;
      for (const WireMessage& m : sent) {
        if (m.source.process != p) inbound.push_back(m);
      }
      std::size_t op = pick(8);
      if (op >= 2 && op <= 4 && inbound.empty()) op = 0;
      switch (op) {
        case 0:
          ASSERT_EQ(sys.local(p, when),
                    model.append(p, model.next_clock(p, {}), {}, when));
          break;
        case 1: {
          const WireMessage m = sys.send(p, when);
          ASSERT_EQ(m.source,
                    model.append(p, model.next_clock(p, {}), {}, when));
          ASSERT_EQ(m.clock, model.clock(m.source));
          sent.push_back(m);
          break;
        }
        case 2: {  // deliver, duplicates included
          const WireMessage m = inbound[pick(inbound.size())];
          const EventId expected =
              model.consumed[p].count(m.source)
                  ? model.duplicate(p, m.source)
                  : model.append(p, model.next_clock(p, {m}), {m.source},
                                 when);
          ASSERT_EQ(sys.deliver(p, m, when), expected);
          break;
        }
        case 3: {  // deliver_all, duplicates inside the batch included
          std::vector<WireMessage> batch;
          for (std::size_t k = 1 + pick(3); k > 0; --k) {
            batch.push_back(inbound[pick(inbound.size())]);
            if (pick(3) == 0) batch.push_back(batch.back());
          }
          ASSERT_EQ(sys.deliver_all(p, batch, when),
                    model.deliver_all(p, batch, when));
          break;
        }
        case 4: {  // restore_event of a receive, then its replay
          std::vector<WireMessage> fresh;
          std::vector<EventId> sources;
          for (const WireMessage& m : inbound) {
            if (model.consumed[p].count(m.source) == 0 &&
                std::find(sources.begin(), sources.end(), m.source) ==
                    sources.end() &&
                pick(2) == 0) {
              fresh.push_back(m);
              sources.push_back(m.source);
            }
          }
          const EventId e{p, model.executed(p) + 1};
          const VectorClock clock = model.next_clock(p, fresh);
          ASSERT_TRUE(sys.restore_event(e, clock, sources, when));
          ASSERT_FALSE(sys.restore_event(e, clock, sources, when));
          model.append(p, clock, sources, when);
          break;
        }
        case 5: {
          VectorClock watermark(n, 0);
          for (ProcessId q = 0; q < n; ++q) {
            watermark.set(q, static_cast<ClockValue>(
                                 1 + pick(model.executed(q) + 2)));
          }
          ASSERT_EQ(sys.compact(watermark), model.compact(watermark));
          break;
        }
        case 6: {  // a fresh system: checkpoint, then the live tail
          OnlineSystem restored(n);
          restored.restore_checkpoint(sys.checkpoint());
          for (ProcessId q = 0; q < n; ++q) {
            for (EventIndex i = model.base[q] + 1; i <= model.executed(q);
                 ++i) {
              const EventId e{q, i};
              ASSERT_TRUE(restored.restore_event(e, sys.clock_of(e).dense(),
                                                 sys.sources_of(e),
                                                 sys.time_of(e)));
            }
          }
          expect_log_matches(restored, model, /*dedup=*/false);
          break;
        }
        default:
          ASSERT_EQ(sys.local(p, OnlineSystem::kNoTime),
                    model.append(p, model.next_clock(p, {}), {},
                                 OnlineSystem::kNoTime));
          break;
      }
      expect_log_matches(sys, model, /*dedup=*/true);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(OnlineLogTest, CompactionKeepsTheRowInForceAtTheCut) {
  OnlineSystem sys(2);
  const WireMessage m = sys.send(0);       // 0:1
  const EventId r = sys.deliver(1, m);     // 1:1, the only receive
  for (int k = 0; k < 3; ++k) sys.local(1);  // 1:2..1:4 share its row
  // Cut between the receive and the local events after it.
  EXPECT_EQ(sys.compact(VectorClock({1, 2})), 1u);
  EXPECT_EQ(sys.clock_of(EventId{1, 2}).dense(), VectorClock({2, 3}));
  // Now the dead prefix is as long as the live part and moves out.
  EXPECT_EQ(sys.compact(VectorClock({1, 3})), 1u);
  EXPECT_EQ(sys.clock_of(EventId{1, 3}).dense(), VectorClock({2, 4}));
  EXPECT_EQ(sys.clock_of(EventId{1, 4}).dense(), VectorClock({2, 5}));
  EXPECT_EQ(sys.wire_of(r).clock, VectorClock({2, 3}));  // the surface
  // Reclaim all of p1: its next event still reads the reclaimed row.
  EXPECT_EQ(sys.compact(VectorClock({1, 5})), 2u);
  EXPECT_EQ(sys.live_log_events(), 1u);  // 0:1
  EXPECT_EQ(sys.clock_of(sys.local(1)).dense(), VectorClock({2, 6}));
  EXPECT_EQ(sys.deliver(1, m), (EventId{1, 1}));  // receipt below no cut
  EXPECT_EQ(sys.compact(VectorClock({2, 1})), 1u);
  EXPECT_EQ(sys.deliver(1, m), (EventId{1, 0}));  // receipt reclaimed
}

TEST(OnlineLogTest, RestoreKeepsANonMonotoneClockAsGiven) {
  OnlineSystem sys(3);
  // The other components jump, fall back to the floor, rise, hold.
  const std::vector<VectorClock> given = {
      VectorClock({2, 5, 7}), VectorClock({3, 1, 1}), VectorClock({4, 1, 2}),
      VectorClock({5, 1, 2}), VectorClock({6, 9, 1})};
  for (EventIndex i = 1; i <= given.size(); ++i) {
    ASSERT_TRUE(sys.restore_event(EventId{0, i}, given[i - 1], {}));
  }
  for (EventIndex i = 1; i <= given.size(); ++i) {
    EXPECT_EQ(sys.clock_of(EventId{0, i}).dense(), given[i - 1]);
  }
  EXPECT_EQ(sys.current_clock(0), given.back());
  EXPECT_EQ(sys.compact(VectorClock({4, 1, 1})), 3u);
  EXPECT_EQ(sys.wire_of(EventId{0, 2}).clock, given[2]);
  EXPECT_EQ(sys.clock_of(EventId{0, 4}).dense(), given[3]);
  EXPECT_EQ(sys.clock_of(EventId{0, 5}).dense(), given[4]);
}

TEST(OnlineLogTest, RejectedRestoreWritesNothing) {
  OnlineSystem sys(3);
  const EventId good{1, 1};
  ASSERT_TRUE(sys.restore_event(good, VectorClock({1, 2, 1}), {}));
  const VectorClock clock({2, 2, 1});
  // A process out of range, the receiver itself, the dummy index.
  for (const EventId bad : {EventId{7, 1}, EventId{0, 1}, EventId{2, 0}}) {
    const std::vector<EventId> sources = {good, bad};
    EXPECT_THROW(sys.restore_event(EventId{0, 1}, clock, sources),
                 ContractViolation);
    EXPECT_EQ(sys.executed(0), 0u);
    EXPECT_EQ(sys.total_executed(), 1u);
    EXPECT_EQ(sys.live_log_events(), 1u);
    EXPECT_EQ(sys.current_clock(0), VectorClock({1, 0, 0}));
    EXPECT_FALSE(sys.already_delivered(0, good));
  }
  // The valid retry extends the log; it is not mistaken for a replay.
  const std::vector<EventId> valid = {good};
  EXPECT_TRUE(sys.restore_event(EventId{0, 1}, clock, valid));
  EXPECT_EQ(sys.executed(0), 1u);
  EXPECT_TRUE(sys.already_delivered(0, good));
  const std::span<const EventId> sources = sys.sources_of(EventId{0, 1});
  EXPECT_EQ(std::vector<EventId>(sources.begin(), sources.end()), valid);
  const Execution exec = sys.to_execution();
  EXPECT_EQ(exec.messages().size(), 1u);
}

TEST(OnlineLogTest, RestoredEventsAllocateOnlyToGrowColumns) {
  // Each round p0 sends, p1 receives the send and executes a local event,
  // and p2 executes a local event. p1 witnesses every event of p0, so its
  // gap tracker stays one contiguous prefix; the test keeps each process's
  // dense clock itself and assigns into clocks of the right size, so only
  // the log can allocate.
  constexpr std::size_t n = 3;
  OnlineSystem sys(n);
  std::vector<VectorClock> clock(n, VectorClock(n, 1));
  std::int64_t now = 0;
  const auto restore = [&](ProcessId p, std::span<const EventId> sources) {
    clock[p].tick(p);
    sys.restore_event(EventId{p, clock[p].at(p) - 1}, clock[p], sources,
                      ++now);
  };
  const auto round = [&] {
    restore(0, {});
    const EventId source{0, clock[0].at(0) - 1};
    clock[1].merge_max(clock[0]);
    restore(1, std::span<const EventId>(&source, 1));
    restore(1, {});
    restore(2, {});
  };
  for (int r = 0; r < 250; ++r) round();  // warm-up
  const std::uint64_t before = g_allocations.load();
  for (int r = 0; r < 2500; ++r) round();
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(sys.live_log_events(), 4u * 2750u);
  // Eight arrays grow — three time columns, p1's rows, row starts,
  // receives and sources, and its receipts from p0 — each doubling fewer
  // than log2(10,000) < 14 times.
  EXPECT_LE(allocations, 8u * 14u);
}

TEST(OnlineLogTest, HostileSourceIndexCostsConstantMemory) {
  // Dedup records follow the receives, never the indices a frame names.
  const auto allocations_for = [](EventIndex index) {
    OnlineSystem sys(3);
    const VectorClock clock({2, 1, 1});
    const EventId source{1, index};
    const std::uint64_t before = g_allocations.load();
    const bool extended = sys.restore_event(
        EventId{0, 1}, clock, std::span<const EventId>(&source, 1));
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_TRUE(extended);
    EXPECT_TRUE(sys.already_delivered(0, source));
    return allocations;
  };
  const std::uint64_t huge =
      allocations_for(std::numeric_limits<EventIndex>::max());
  EXPECT_EQ(huge, allocations_for(5));
  EXPECT_LE(huge, 8u);
}

}  // namespace
}  // namespace syncon
