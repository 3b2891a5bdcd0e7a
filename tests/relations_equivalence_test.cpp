// The central correctness property of the reproduction: the paper's
// linear-time conditions (Table 1 column 3, Theorem 20) decide exactly the
// same relations as the quantifier definitions (column 2).
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/fast.hpp"
#include "relations/naive.hpp"

namespace syncon {
namespace {

using testing::disjoint_pair;
using testing::property_sweep;
using testing::two_process_message;

TEST(RelationsBasicTest, FullyOrderedPairSatisfiesEverything) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  const NonatomicEvent x(exec, {EventId{0, 1}, EventId{0, 2}});  // a1, a2
  const NonatomicEvent y(exec, {EventId{1, 2}, EventId{1, 3}});  // b2, b3
  const EventCuts xc(ts, x), yc(ts, y);
  QueryCost counter;
  for (const Relation r : kAllRelations) {
    EXPECT_TRUE(evaluate_fast(r, xc, yc, counter)) << to_string(r);
    EXPECT_TRUE(evaluate_naive(r, x, y, ts, Semantics::Strict))
        << to_string(r);
  }
}

TEST(RelationsBasicTest, ConcurrentPairSatisfiesNothing) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  const NonatomicEvent x(exec, {EventId{0, 3}});  // a3 (after the send)
  const NonatomicEvent y(exec, {EventId{1, 1}});  // b1 (before the receive)
  const EventCuts xc(ts, x), yc(ts, y);
  QueryCost counter;
  for (const Relation r : kAllRelations) {
    EXPECT_FALSE(evaluate_fast(r, xc, yc, counter)) << to_string(r);
    EXPECT_FALSE(evaluate_naive(r, x, y, ts, Semantics::Strict))
        << to_string(r);
  }
}

TEST(RelationsBasicTest, MixedPairDistinguishesQuantifiers) {
  // X = {a1, a3}: a1 precedes b2/b3, a3 precedes nothing in Y.
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  const NonatomicEvent x(exec, {EventId{0, 1}, EventId{0, 3}});
  const NonatomicEvent y(exec, {EventId{1, 2}, EventId{1, 3}});
  const EventCuts xc(ts, x), yc(ts, y);
  QueryCost counter;
  EXPECT_FALSE(evaluate_fast(Relation::R1, xc, yc, counter));
  EXPECT_FALSE(evaluate_fast(Relation::R2, xc, yc, counter));   // a3 stuck
  EXPECT_FALSE(evaluate_fast(Relation::R2p, xc, yc, counter));  // no y ⪰ a3
  EXPECT_TRUE(evaluate_fast(Relation::R3, xc, yc, counter));    // a1 ⪯ all y
  EXPECT_TRUE(evaluate_fast(Relation::R3p, xc, yc, counter));
  EXPECT_TRUE(evaluate_fast(Relation::R4, xc, yc, counter));
}

TEST(RelationsBasicTest, WeakSemanticsDifferOnSharedEvents) {
  // X = Y = {a1}: strictly, a1 ⊀ a1; weakly, a1 ⪯ a1. The fast conditions
  // decide the weak form — the documented boundary (DESIGN.md §3.3).
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  const NonatomicEvent x(exec, {EventId{0, 1}});
  const EventCuts xc(ts, x);
  QueryCost counter;
  EXPECT_FALSE(evaluate_naive(Relation::R4, x, x, ts, Semantics::Strict));
  EXPECT_TRUE(evaluate_naive(Relation::R4, x, x, ts, Semantics::Weak));
  EXPECT_TRUE(evaluate_fast(Relation::R4, xc, xc, counter));
}

// ---------------------------------------------------------------------------
// Property sweeps
// ---------------------------------------------------------------------------

class RelationEquivalenceTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

// fast ≡ naive-weak for arbitrary (possibly overlapping) interval pairs.
TEST_P(RelationEquivalenceTest, FastMatchesWeakNaive) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x5151);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2 + 1);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 60; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const EventCuts xc(ts, x), yc(ts, y);
    QueryCost counter;
    for (const Relation r : kAllRelations) {
      ASSERT_EQ(evaluate_fast(r, xc, yc, counter),
                evaluate_naive(r, x, y, ts, Semantics::Weak))
          << to_string(r) << " trial " << trial;
    }
  }
}

// fast ≡ naive-strict when X and Y share no events.
TEST_P(RelationEquivalenceTest, FastMatchesStrictNaiveOnDisjointPairs) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x2222);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 2;
  for (int trial = 0; trial < 60; ++trial) {
    const auto [x, y] = disjoint_pair(exec, rng, spec);
    const EventCuts xc(ts, x), yc(ts, y);
    QueryCost counter;
    for (const Relation r : kAllRelations) {
      ASSERT_EQ(evaluate_fast(r, xc, yc, counter),
                evaluate_naive(r, x, y, ts, Semantics::Strict))
          << to_string(r) << " trial " << trial;
    }
  }
}

// naive (timestamps) ≡ oracle (BFS closure), both semantics.
TEST_P(RelationEquivalenceTest, NaiveMatchesOracle) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  const ReachabilityOracle oracle(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x3333);
  IntervalSpec spec;
  spec.node_count = 2;
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 30; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    for (const Relation r : kAllRelations) {
      for (const Semantics sem : {Semantics::Strict, Semantics::Weak}) {
        ASSERT_EQ(evaluate_naive(r, x, y, ts, sem),
                  evaluate_oracle(r, x, y, oracle, sem))
            << to_string(r) << " " << to_string(sem);
      }
    }
  }
}

// The |N_X| x |N_Y| proxy-naive tier (quantifying over per-node extremes)
// computes the same relations as the full |X| x |Y| quantification.
TEST_P(RelationEquivalenceTest, ProxyNaiveMatchesNaive) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x4444);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() - 1);
  spec.max_events_per_node = 4;
  for (int trial = 0; trial < 40; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    for (const Relation r : kAllRelations) {
      for (const Semantics sem : {Semantics::Strict, Semantics::Weak}) {
        ASSERT_EQ(evaluate_proxy_naive(r, x, y, ts, sem),
                  evaluate_naive(r, x, y, ts, sem))
            << to_string(r) << " " << to_string(sem);
      }
    }
  }
}

// R1 ≡ R1' and R4 ≡ R4' under every evaluator (quantifier order on the same
// quantifier kind is immaterial).
TEST_P(RelationEquivalenceTest, PrimedTwinsCoincide) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x6666);
  IntervalSpec spec;
  spec.node_count = 2;
  spec.max_events_per_node = 2;
  for (int trial = 0; trial < 40; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const EventCuts xc(ts, x), yc(ts, y);
    QueryCost counter;
    ASSERT_EQ(evaluate_fast(Relation::R1, xc, yc, counter),
              evaluate_fast(Relation::R1p, xc, yc, counter));
    ASSERT_EQ(evaluate_fast(Relation::R4, xc, yc, counter),
              evaluate_fast(Relation::R4p, xc, yc, counter));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RelationEquivalenceTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
