#include <gtest/gtest.h>

#include "helpers.hpp"
#include "relations/evaluator.hpp"
#include "relations/hierarchy.hpp"
#include "sim/interval_picker.hpp"

namespace syncon {
namespace {

using testing::property_sweep;

TEST(HierarchyTest, QuantifierLatticeEdges) {
  EXPECT_TRUE(implies(Relation::R1, Relation::R2));
  EXPECT_TRUE(implies(Relation::R1, Relation::R2p));
  EXPECT_TRUE(implies(Relation::R1, Relation::R3));
  EXPECT_TRUE(implies(Relation::R1, Relation::R4));
  EXPECT_TRUE(implies(Relation::R1, Relation::R1p));
  EXPECT_TRUE(implies(Relation::R1p, Relation::R1));
  EXPECT_TRUE(implies(Relation::R2p, Relation::R2));
  EXPECT_TRUE(implies(Relation::R2, Relation::R4));
  EXPECT_TRUE(implies(Relation::R3, Relation::R3p));
  EXPECT_TRUE(implies(Relation::R3p, Relation::R4));
  EXPECT_TRUE(implies(Relation::R4, Relation::R4p));

  EXPECT_FALSE(implies(Relation::R2, Relation::R3));
  EXPECT_FALSE(implies(Relation::R2p, Relation::R3p));
  EXPECT_FALSE(implies(Relation::R3p, Relation::R2));
  EXPECT_FALSE(implies(Relation::R4, Relation::R2));
  EXPECT_FALSE(implies(Relation::R2, Relation::R1));
}

TEST(HierarchyTest, ProxyMonotonicity) {
  const RelationId strong{Relation::R4, ProxyKind::End, ProxyKind::Begin};
  const RelationId weak{Relation::R4, ProxyKind::Begin, ProxyKind::End};
  EXPECT_TRUE(implies(strong, weak));
  EXPECT_FALSE(implies(weak, strong));
  // Mixed: quantifier strengthening with proxy weakening composes.
  const RelationId a{Relation::R1, ProxyKind::End, ProxyKind::Begin};
  const RelationId b{Relation::R4, ProxyKind::Begin, ProxyKind::End};
  EXPECT_TRUE(implies(a, b));
  EXPECT_FALSE(implies(b, a));
  // Proxy change in the wrong direction blocks the implication.
  const RelationId c{Relation::R1, ProxyKind::Begin, ProxyKind::Begin};
  const RelationId d{Relation::R4, ProxyKind::End, ProxyKind::Begin};
  EXPECT_FALSE(implies(c, d));
}

TEST(HierarchyTest, ImplicationIsReflexiveAndTransitive) {
  const auto ids = all_relation_ids();
  for (const RelationId& a : ids) {
    EXPECT_TRUE(implies(a, a));
    for (const RelationId& b : ids) {
      if (!implies(a, b)) continue;
      for (const RelationId& c : ids) {
        if (implies(b, c)) {
          EXPECT_TRUE(implies(a, c))
              << to_string(a) << " => " << to_string(b) << " => "
              << to_string(c);
        }
      }
    }
  }
}

// The precomputed masks are implies() itself, bit for bit, in both
// directions.
TEST(HierarchyTest, ClosureMasksMatchBruteForceImplies) {
  const ImplicationClosure& closure = implication_closure();
  const auto ids = all_relation_ids();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(closure.implied_true[k].contains(ids[j]),
                implies(ids[k], ids[j]))
          << to_string(ids[k]) << " => " << to_string(ids[j]);
      EXPECT_EQ(closure.implied_false[k].contains(ids[j]),
                implies(ids[j], ids[k]))
          << to_string(ids[j]) << " => " << to_string(ids[k]);
    }
  }
  EXPECT_EQ(&closure, &implication_closure());  // computed once
}

// Non-implications are genuine: for each key missing edge of the 8-relation
// lattice, a concrete witness where the antecedent holds and the consequent
// fails.
TEST(HierarchyTest, NonImplicationsHaveWitnesses) {
  // Execution: x1@p0 → y1@p2 and x2@p1 → y2@p3 (two disjoint chains).
  ExecutionBuilder b(4);
  EventId x1, x2;
  const MessageToken m1 = b.send(0, &x1);
  const MessageToken m2 = b.send(1, &x2);
  const EventId y1 = b.receive(2, m1);
  const EventId y2 = b.receive(3, m2);
  const Execution exec = b.build();
  const Timestamps ts(exec);
  const NonatomicEvent x(exec, {x1, x2}, "X");
  const NonatomicEvent y(exec, {y1, y2}, "Y");
  const EventCuts xc(ts, x), yc(ts, y);
  ComparisonCounter c;
  // R2 holds (each x reaches its own y) but R2' fails (no single y sees
  // both xs) and R3 fails (no single x seeds both ys).
  EXPECT_TRUE(evaluate_fast(Relation::R2, xc, yc, c));
  EXPECT_TRUE(evaluate_fast(Relation::R3p, xc, yc, c));
  EXPECT_FALSE(evaluate_fast(Relation::R2p, xc, yc, c));
  EXPECT_FALSE(evaluate_fast(Relation::R3, xc, yc, c));
  EXPECT_FALSE(evaluate_fast(Relation::R1, xc, yc, c));

  // Funnel execution: both xs reach a single y₁, while y₂ is unreachable —
  // R2' holds (y₁ sees all of X) but R1 and R3' fail (y₂ sees nothing),
  // separating R2' from the relations universal in y.
  ExecutionBuilder b2(4);
  EventId u1, u2;
  const MessageToken n1 = b2.send(0, &u1);
  const MessageToken n2 = b2.send(1, &u2);
  const std::vector<MessageToken> both{n1, n2};
  const EventId v1 = b2.receive_all(2, both);
  const EventId v2 = b2.local(3);
  const Execution exec2 = b2.build();
  const Timestamps ts2(exec2);
  const NonatomicEvent x2set(exec2, {u1, u2}, "X");
  const NonatomicEvent y2set(exec2, {v1, v2}, "Y");
  const EventCuts xc2(ts2, x2set), yc2(ts2, y2set);
  EXPECT_TRUE(evaluate_fast(Relation::R2p, xc2, yc2, c));
  EXPECT_TRUE(evaluate_fast(Relation::R2, xc2, yc2, c));
  EXPECT_FALSE(evaluate_fast(Relation::R1, xc2, yc2, c));
  EXPECT_FALSE(evaluate_fast(Relation::R3p, xc2, yc2, c));
  EXPECT_FALSE(evaluate_fast(Relation::R3, xc2, yc2, c));
}

// ---------------------------------------------------------------------------
// Semantic soundness: whenever implies(a, b) and a holds, b holds — verified
// with the fast evaluator over the sweep.
// ---------------------------------------------------------------------------

class HierarchyPropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(HierarchyPropertyTest, ImplicationsHoldSemantically) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xaaaa);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));

  const auto ids = all_relation_ids();
  std::array<bool, 32> value{};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    value[i] = eval.holds(ids[i], hx, hy);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (implies(ids[i], ids[j]) && value[i]) {
        ASSERT_TRUE(value[j]) << to_string(ids[i]) << " holds but implied "
                              << to_string(ids[j]) << " does not";
      }
    }
  }
}

TEST_P(HierarchyPropertyTest, PrunedAllHoldingMatchesExhaustive) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xbbbb);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 10; ++trial) {
    const auto hx = eval.add_event(
        random_interval(exec, rng, spec, "X" + std::to_string(trial)));
    const auto hy = eval.add_event(
        random_interval(exec, rng, spec, "Y" + std::to_string(trial)));
    const auto full = eval.all_holding(hx, hy);
    const auto pruned = eval.all_holding_pruned(hx, hy);
    ASSERT_EQ(full.holding, pruned.holding);
    EXPECT_EQ(full.evaluated, 32u);
    EXPECT_LE(pruned.evaluated, full.evaluated);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HierarchyPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
