#include <gtest/gtest.h>

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
  ComparisonCounter counter;
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
      ComparisonCounter counter;
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

}  // namespace
}  // namespace syncon
