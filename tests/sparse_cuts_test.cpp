#include <gtest/gtest.h>

#include "helpers.hpp"
#include "relations/sparse_cuts.hpp"
#include "relations/fast.hpp"
#include "sim/interval_picker.hpp"

namespace syncon {
namespace {

using testing::property_sweep;

TEST(SparseCutsTest, Fig2ComponentsMatchDense) {
  const auto fig = testing::Fig2Fixture::make();
  const Timestamps ts(fig.exec);
  const NonatomicEvent x(fig.exec, fig.x_events, "X");
  const EventCuts dense(ts, x);
  const SparseEventCuts sparse(ts, x);
  for (const PosetCut which :
       {PosetCut::IntersectPast, PosetCut::UnionPast,
        PosetCut::IntersectFuture, PosetCut::UnionFuture}) {
    EXPECT_EQ(sparse.counts(which), dense.counts(which)) << to_string(which);
  }
}

TEST(SparseCutsTest, ComponentCostIsNodeCount) {
  const auto fig = testing::Fig2Fixture::make();
  const Timestamps ts(fig.exec);
  const NonatomicEvent x(fig.exec, fig.x_events, "X");
  const SparseEventCuts sparse(ts, x);
  QueryCost counter;
  (void)sparse.component(PosetCut::UnionPast, 2, &counter);
  EXPECT_EQ(counter.integer_comparisons, x.node_count());
}

class SparseCutsPropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(SparseCutsPropertyTest, SparseMatchesDenseEverywhere) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x50a1);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 20; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const EventCuts dense(ts, x);
    const SparseEventCuts sparse(ts, x);
    for (const PosetCut which :
         {PosetCut::IntersectPast, PosetCut::UnionPast,
          PosetCut::IntersectFuture, PosetCut::UnionFuture}) {
      ASSERT_EQ(sparse.counts(which), dense.counts(which));
    }
  }
}

TEST_P(SparseCutsPropertyTest, SparseEvaluationMatchesDense) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x50a2);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 30; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const EventCuts dx(ts, x), dy(ts, y);
    const SparseEventCuts sx(ts, x), sy(ts, y);
    for (const Relation r : kAllRelations) {
      QueryCost dense_c, sparse_c;
      const bool dense_v = evaluate_fast(r, dx, dy, dense_c);
      const bool sparse_v = evaluate_fast_sparse(r, sx, sy, sparse_c);
      ASSERT_EQ(dense_v, sparse_v) << to_string(r);
      // Sparse spends at least as many comparisons (on-demand folds).
      ASSERT_GE(sparse_c.integer_comparisons, dense_c.integer_comparisons);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SparseCutsPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
