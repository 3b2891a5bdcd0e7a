// Regression tests for DESIGN.md §3.3b: which side (N_X or N_Y) may be
// probed for each ≪-based condition. These encode the concrete
// counterexamples showing the paper's Theorem 20 over-claims min(|N_X|,
// |N_Y|) for R2' and R3.
#include <gtest/gtest.h>

#include "cuts/ll_relation.hpp"
#include "helpers.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/fast.hpp"
#include "relations/naive.hpp"
#include "sim/interval_picker.hpp"

namespace syncon {
namespace {

using testing::property_sweep;

// X = {x} on p0 messaging y1@p1 and y2@p2 directly. R3(X, Y) holds (x
// precedes every y), but the violation of ≪(∩⇓Y, ∩⇑X) is visible only at
// p0 ∈ N_X; both N_Y components compare clean.
TEST(ProbeSideTest, R3CounterexampleDefeatsNYProbing) {
  ExecutionBuilder b(3);
  EventId x_event;
  const MessageToken m1 = b.send(0, &x_event);
  const EventId y1 = b.receive(1, m1);
  // Reuse the multicast token for p2 — one send, two receives.
  const EventId y2 = b.receive(2, m1);
  const Execution exec = b.build();
  const Timestamps ts(exec);

  const NonatomicEvent x(exec, {x_event}, "X");
  const NonatomicEvent y(exec, {y1, y2}, "Y");
  EXPECT_TRUE(evaluate_naive(Relation::R3, x, y, ts, Semantics::Strict));

  const EventCuts xc(ts, x), yc(ts, y);
  QueryCost counter;
  // Our evaluator (probing N_X) gets it right.
  EXPECT_TRUE(evaluate_fast(Relation::R3, xc, yc, counter));
  // Probing N_Y, as the paper's min() claim would allow, misses the
  // violation — the would-be optimization is unsound.
  EXPECT_FALSE(theorem19_violated(yc.intersect_past(), xc.intersect_future(),
                                  y.node_set(), counter));
  // Probing N_X finds it.
  EXPECT_TRUE(theorem19_violated(yc.intersect_past(), xc.intersect_future(),
                                 x.node_set(), counter));
}

// Mirror counterexample for R2': X = {x1@p0, x2@p1}, Y = {y@p2} receiving
// from both. R2' holds, but only the N_Y component shows the violation of
// ≪(∪⇓Y, ∪⇑X).
TEST(ProbeSideTest, R2pCounterexampleDefeatsNXProbing) {
  ExecutionBuilder b(3);
  EventId x1_event, x2_event;
  const MessageToken m1 = b.send(0, &x1_event);
  const MessageToken m2 = b.send(1, &x2_event);
  const std::vector<MessageToken> both{m1, m2};
  const EventId y_event = b.receive_all(2, both);
  const Execution exec = b.build();
  const Timestamps ts(exec);

  const NonatomicEvent x(exec, {x1_event, x2_event}, "X");
  const NonatomicEvent y(exec, {y_event}, "Y");
  EXPECT_TRUE(evaluate_naive(Relation::R2p, x, y, ts, Semantics::Strict));

  const EventCuts xc(ts, x), yc(ts, y);
  QueryCost counter;
  EXPECT_TRUE(evaluate_fast(Relation::R2p, xc, yc, counter));
  EXPECT_FALSE(theorem19_violated(yc.union_past(), xc.union_future(),
                                  x.node_set(), counter));
  EXPECT_TRUE(theorem19_violated(yc.union_past(), xc.union_future(),
                                 y.node_set(), counter));
}

// ---------------------------------------------------------------------------
// For R4 the paper's claim IS sound: a violation of ≪(∪⇓Y, ∩⇑X) is always
// visible from both sides. Verify on the sweep.
// ---------------------------------------------------------------------------

class ProbeSidePropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(ProbeSidePropertyTest, R4ViolationVisibleFromBothSides) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x7777);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 50; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const EventCuts xc(ts, x), yc(ts, y);
    QueryCost counter;
    const bool via_x = theorem19_violated(
        yc.union_past(), xc.intersect_future(), x.node_set(), counter);
    const bool via_y = theorem19_violated(
        yc.union_past(), xc.intersect_future(), y.node_set(), counter);
    ASSERT_EQ(via_x, via_y) << "R4 probe sides disagree at trial " << trial;
    ASSERT_EQ(via_x, evaluate_naive(Relation::R4, x, y, ts, Semantics::Weak));
  }
}

// R1's two evaluation routes (|N_X| per-x tests vs |N_Y| per-y tests) agree.
TEST_P(ProbeSidePropertyTest, R1BothRoutesAgree) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x8888);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 50; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const EventCuts xc(ts, x), yc(ts, y);
    // Route 1 (per-x, N_X comparisons): ∀x greatest: ∩⇓Y[i] >= idx+1.
    bool route_x = true;
    for (const ProcessId i : x.node_set()) {
      if (yc.intersect_past()[i] < x.greatest_on(i).index + 1) {
        route_x = false;
        break;
      }
    }
    // Route 2 (per-y, N_Y comparisons): ∀y least: idx+1 >= ∪⇑X[j].
    bool route_y = true;
    for (const ProcessId j : y.node_set()) {
      if (y.least_on(j).index + 1 < xc.union_future()[j]) {
        route_y = false;
        break;
      }
    }
    ASSERT_EQ(route_x, route_y);
    ASSERT_EQ(route_x, evaluate_naive(Relation::R1, x, y, ts, Semantics::Weak));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProbeSidePropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
