#include <gtest/gtest.h>

#include "helpers.hpp"
#include "model/reachability.hpp"
#include "relations/fast.hpp"
#include "sim/interval_picker.hpp"
#include "support/contracts.hpp"
#include "timing/timing_constraints.hpp"

namespace syncon {
namespace {

using testing::property_sweep;
using testing::two_process_message;

TEST(PhysicalTimesTest, ValidatesMonotonicity) {
  const Execution exec = two_process_message();
  // p0: 3 events, p1: 3 events. Non-monotone series rejected.
  EXPECT_THROW(
      PhysicalTimes(exec, {{10, 5, 20}, {1, 2, 3}}),
      ContractViolation);
  EXPECT_THROW(PhysicalTimes(exec, {{10, 20, 30}, {1, 2}}),
               ContractViolation);
}

TEST(PhysicalTimesTest, ValidatesMessageCausality) {
  const Execution exec = two_process_message();
  // Receive (p1 event 2) before send (p0 event 2) is rejected.
  EXPECT_THROW(PhysicalTimes(exec, {{10, 20, 30}, {1, 2, 3}}),
               ContractViolation);
  // A valid assignment passes.
  EXPECT_NO_THROW(PhysicalTimes(exec, {{10, 20, 30}, {1, 25, 40}}));
}

TEST(PhysicalTimesTest, AccessorsAndHorizon) {
  const Execution exec = two_process_message();
  const PhysicalTimes times(exec, {{10, 20, 30}, {1, 25, 40}});
  EXPECT_EQ(times.at(EventId{0, 2}), 20);
  EXPECT_EQ(times.at(EventId{1, 3}), 40);
  EXPECT_EQ(times.horizon(), 40);
  EXPECT_THROW(times.at(exec.initial(0)), ContractViolation);
}

TEST(PhysicalTimesTest, IntervalInstants) {
  const Execution exec = two_process_message();
  const PhysicalTimes times(exec, {{10, 20, 30}, {1, 25, 40}});
  const NonatomicEvent x(exec, {EventId{0, 1}, EventId{1, 2}});
  EXPECT_EQ(start_time(times, x), 10);
  EXPECT_EQ(end_time(times, x), 25);
  EXPECT_EQ(duration_of(times, x), 15);
}

TEST(TimingConstraintTest, GapAndWindow) {
  const Execution exec = two_process_message();
  const PhysicalTimes times(exec, {{10, 20, 30}, {1, 25, 40}});
  const NonatomicEvent x(exec, {EventId{0, 1}, EventId{0, 2}});  // ends 20
  const NonatomicEvent y(exec, {EventId{1, 2}, EventId{1, 3}});  // starts 25
  EXPECT_EQ(gap(times, x, Anchor::End, y, Anchor::Start), 5);
  TimingConstraint tight{"tight", Anchor::End, Anchor::Start, 0, 4};
  TimingConstraint loose{"loose", Anchor::End, Anchor::Start, 0, 10};
  EXPECT_FALSE(check_constraint(times, tight, x, y).satisfied);
  EXPECT_TRUE(check_constraint(times, loose, x, y).satisfied);
  TimingConstraint min_bound{"min", Anchor::End, Anchor::Start, 6,
                             std::numeric_limits<Duration>::max()};
  EXPECT_FALSE(check_constraint(times, min_bound, x, y).satisfied);
}

TEST(LatencyProfileTest, AccumulatesAndCountsViolations) {
  const Execution exec = two_process_message();
  const PhysicalTimes times(exec, {{10, 20, 30}, {1, 25, 40}});
  const NonatomicEvent x(exec, {EventId{0, 1}});
  const NonatomicEvent y1(exec, {EventId{1, 2}});  // gap 15
  const NonatomicEvent y2(exec, {EventId{1, 3}});  // gap 30
  LatencyProfile profile(
      TimingConstraint{"p", Anchor::End, Anchor::Start, 0, 20});
  profile.record(times, x, y1);
  profile.record(times, x, y2);
  EXPECT_EQ(profile.samples(), 2u);
  EXPECT_EQ(profile.violations(), 1u);
  EXPECT_EQ(profile.worst_gap(), 30);
  EXPECT_FALSE(profile.all_satisfied());
}

// ---------------------------------------------------------------------------
// Property sweep: synthetic timelines respect causality, which makes causal
// precedence imply temporal precedence (but not conversely).
// ---------------------------------------------------------------------------

class TimingPropertyTest : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(TimingPropertyTest, AssignedTimesRespectCausality) {
  const Execution exec = generate_execution(GetParam());
  TimingModel model;
  model.seed = GetParam().seed;
  const PhysicalTimes times = assign_times(exec, model);
  const ReachabilityOracle oracle(exec);
  const auto& order = exec.topological_order();
  Xoshiro256StarStar rng(GetParam().seed ^ 0x7177);
  for (int trial = 0; trial < 300 && !order.empty(); ++trial) {
    const EventId a = order[rng.below(order.size())];
    const EventId b = order[rng.below(order.size())];
    if (oracle.lt(a, b)) {
      ASSERT_LT(times.at(a), times.at(b));
    }
  }
}

TEST_P(TimingPropertyTest, CausalPrecedenceImpliesTemporalPrecedence) {
  const Execution exec = generate_execution(GetParam());
  TimingModel model;
  model.seed = GetParam().seed ^ 1;
  const PhysicalTimes times = assign_times(exec, model);
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x7178);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 30; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const EventCuts xc(ts, x), yc(ts, y);
    QueryCost counter;
    // R1 on (U, L) proxies == every end event ≺ every begin event, so the
    // physical end must precede the physical start.
    const NonatomicEvent ux = x.proxy_per_node(ProxyKind::End);
    const NonatomicEvent ly = y.proxy_per_node(ProxyKind::Begin);
    const EventCuts uxc(ts, ux), lyc(ts, ly);
    if (evaluate_fast(Relation::R1, uxc, lyc, counter) &&
        !ux.contains(ly.events().front())) {
      // Guard against the shared-event weak boundary: check disjointness.
      bool disjoint = true;
      for (const EventId& e : ly.events()) {
        if (ux.contains(e)) disjoint = false;
      }
      if (disjoint) {
        ASSERT_LT(end_time(times, ux), start_time(times, ly));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TimingPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
