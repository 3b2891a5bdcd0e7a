#include <gtest/gtest.h>

#include "helpers.hpp"
#include "relations/interaction_types.hpp"
#include "relations/naive.hpp"
#include "sim/interval_picker.hpp"

namespace syncon {
namespace {

using testing::property_sweep;
using testing::three_process_concurrent;
using testing::two_process_message;

RelationProfile profile_of(const Timestamps& ts, const NonatomicEvent& x,
                           const NonatomicEvent& y) {
  const EventCuts xc(ts, x), yc(ts, y);
  ComparisonCounter counter;
  return relation_profile(xc, yc, counter);
}

TEST(InteractionTypesTest, FullyOrderedPairPrecedes) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  const NonatomicEvent x(exec, {EventId{0, 1}, EventId{0, 2}});
  const NonatomicEvent y(exec, {EventId{1, 2}, EventId{1, 3}});
  const RelationProfile p = profile_of(ts, x, y);
  EXPECT_EQ(classify(p), InteractionType::Precedes);
  EXPECT_EQ(forward_grade(p), CouplingGrade::Total);
  EXPECT_EQ(backward_grade(p), CouplingGrade::None);
  // The mirror pair classifies as Follows.
  EXPECT_EQ(classify(profile_of(ts, y, x)), InteractionType::Follows);
}

TEST(InteractionTypesTest, ConcurrentPair) {
  const Execution exec = three_process_concurrent();
  const Timestamps ts(exec);
  const NonatomicEvent x(exec, {EventId{0, 1}});
  const NonatomicEvent y(exec, {EventId{1, 1}});
  const RelationProfile p = profile_of(ts, x, y);
  EXPECT_EQ(classify(p), InteractionType::Concurrent);
  EXPECT_EQ(forward_grade(p), CouplingGrade::None);
  EXPECT_EQ(backward_grade(p), CouplingGrade::None);
}

TEST(InteractionTypesTest, PartialForwardCouplingIsWeak) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  // X = {a1, a3}: only a1 reaches Y = {b2}; a3 does not. Forward R4 holds
  // but R1 does not; no backward causality.
  const NonatomicEvent x(exec, {EventId{0, 1}, EventId{0, 3}});
  const NonatomicEvent y(exec, {EventId{1, 2}});
  const RelationProfile p = profile_of(ts, x, y);
  EXPECT_EQ(classify(p), InteractionType::WeaklyPrecedes);
  EXPECT_EQ(classify(profile_of(ts, y, x)), InteractionType::WeaklyFollows);
  // a1 ⪯ the single y (and y is one event), so ∃x∀y holds: funneled grade.
  EXPECT_EQ(forward_grade(p), CouplingGrade::Funneled);
}

TEST(InteractionTypesTest, EntangledWhenCausalityFlowsBothWays) {
  // p0 sends to p1, p1 later sends back to p0.
  ExecutionBuilder b(2);
  const EventId a1 = b.local(0);
  const MessageToken m1 = b.send(0);
  const EventId b1 = b.receive(1, m1);
  const MessageToken m2 = b.send(1);
  const EventId a2 = b.receive(0, m2);
  const Execution exec = b.build();
  const Timestamps ts(exec);
  const NonatomicEvent x(exec, {a1, a2});
  const NonatomicEvent y(exec, {b1, EventId{1, 2}});
  const RelationProfile p = profile_of(ts, x, y);
  EXPECT_EQ(classify(p), InteractionType::Entangled);
  EXPECT_NE(forward_grade(p), CouplingGrade::None);
  EXPECT_NE(backward_grade(p), CouplingGrade::None);
}

TEST(InteractionTypesTest, NamesAreStable) {
  EXPECT_STREQ(to_string(InteractionType::Entangled), "entangled");
  EXPECT_STREQ(to_string(CouplingGrade::Funneled), "funneled");
}

// ---------------------------------------------------------------------------
// Property sweep
// ---------------------------------------------------------------------------

class InteractionPropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(InteractionPropertyTest, ProfileMatchesNaiveEvaluation) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x1dea);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 25; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const RelationProfile p = profile_of(ts, x, y);
    for (const Relation r : kAllRelations) {
      ASSERT_EQ(p.holds(r), evaluate_naive(r, x, y, ts, Semantics::Weak));
      ASSERT_EQ(p.holds_reverse(r),
                evaluate_naive(r, y, x, ts, Semantics::Weak));
    }
  }
}

TEST_P(InteractionPropertyTest, ClassificationIsMirrorConsistent) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x2dea);
  IntervalSpec spec;
  spec.node_count = 2;
  spec.max_events_per_node = 2;
  auto mirror = [](InteractionType t) {
    switch (t) {
      case InteractionType::Precedes: return InteractionType::Follows;
      case InteractionType::Follows: return InteractionType::Precedes;
      case InteractionType::WeaklyPrecedes:
        return InteractionType::WeaklyFollows;
      case InteractionType::WeaklyFollows:
        return InteractionType::WeaklyPrecedes;
      default: return t;
    }
  };
  for (int trial = 0; trial < 25; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const InteractionType fwd = classify(profile_of(ts, x, y));
    const InteractionType bwd = classify(profile_of(ts, y, x));
    ASSERT_EQ(mirror(fwd), bwd);
  }
}

TEST_P(InteractionPropertyTest, GradeIsMonotoneInTheLattice) {
  // Whenever R1 holds the grade is Total; whenever only R4 holds it is
  // Partial; the grade can never be None while R4 holds.
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x3dea);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 25; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const RelationProfile p = profile_of(ts, x, y);
    const CouplingGrade g = forward_grade(p);
    if (p.holds(Relation::R1)) {
      ASSERT_EQ(g, CouplingGrade::Total);
    }
    if (!p.holds(Relation::R4)) {
      ASSERT_EQ(g, CouplingGrade::None);
    }
    if (p.holds(Relation::R4)) {
      ASSERT_NE(g, CouplingGrade::None);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, InteractionPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
