#include <gtest/gtest.h>

#include <cstdlib>

#include "counting_new.hpp"
#include "helpers.hpp"
#include "relations/evaluator.hpp"
#include "sim/interval_picker.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

using testing::property_sweep;
using testing::two_process_message;

TEST(RelationSetTest, IteratesInAllRelationIdsOrder) {
  const auto ids = all_relation_ids();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(relation_index(ids[k]), k);
    EXPECT_EQ(relation_at(k), ids[k]);
  }
  const std::vector<RelationId> everything = RelationSet::all();
  EXPECT_EQ(everything, std::vector<RelationId>(ids.begin(), ids.end()));

  const RelationSet some((1u << 31) | (1u << 5) | 1u);
  std::vector<RelationId> seen;
  for (const RelationId id : some) seen.push_back(id);
  EXPECT_EQ(seen, (std::vector<RelationId>{ids[0], ids[5], ids[31]}));
  EXPECT_EQ(static_cast<std::vector<RelationId>>(some), seen);
}

TEST(RelationSetTest, SizeContainsAndEquality) {
  const auto ids = all_relation_ids();
  const RelationSet some((1u << 31) | (1u << 5) | 1u);
  EXPECT_EQ(some.size(), 3u);
  EXPECT_FALSE(some.empty());
  EXPECT_TRUE(some.contains(ids[5]));
  EXPECT_FALSE(some.contains(ids[6]));
  EXPECT_EQ(some, RelationSet(some.mask()));
  EXPECT_NE(some, RelationSet(some.mask() ^ 2u));
  EXPECT_EQ(RelationSet::all().size(), 32u);

  const RelationSet none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(none.begin() == none.end());
  EXPECT_TRUE(static_cast<std::vector<RelationId>>(none).empty());
}

// Problem 4(ii) queries hand back a value: neither sweep allocates, with a
// cost sink or through the shared tally.
TEST(RelationEvaluatorTest, AllHoldingQueriesAllocateNothing) {
  WorkloadConfig cfg;
  cfg.process_count = 8;
  cfg.events_per_process = 30;
  cfg.seed = 5;
  const Execution exec = generate_execution(cfg);
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(55);
  IntervalSpec spec;
  spec.node_count = 4;
  spec.max_events_per_node = 3;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));

  QueryCost cost;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const auto full = eval.all_holding(hx, hy, &cost);
  const auto pruned = eval.all_holding_pruned(hx, hy, &cost);
  const auto tallied = eval.all_holding_pruned(hy, hx);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(full.holding, pruned.holding);
  EXPECT_EQ(cost, full.cost + pruned.cost);
  EXPECT_EQ(eval.accumulated_cost(), tallied.cost);
}

TEST(RelationEvaluatorTest, RegistersEventsAndProxies) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  const auto h = eval.add_event(
      NonatomicEvent(exec, {EventId{0, 1}, EventId{0, 3}, EventId{1, 1}},
                     "act"));
  EXPECT_EQ(eval.event_count(), 1u);
  EXPECT_EQ(eval.event(h).label(), "act");
  EXPECT_EQ(eval.proxy(h, ProxyKind::Begin).events(),
            (std::vector<EventId>{{0, 1}, {1, 1}}));
  EXPECT_EQ(eval.proxy(h, ProxyKind::End).events(),
            (std::vector<EventId>{{0, 3}, {1, 1}}));
  // Proxy cuts reference the proxies, not the original event.
  EXPECT_EQ(&eval.proxy_cuts(h, ProxyKind::Begin).event(),
            &eval.proxy(h, ProxyKind::Begin));
}

TEST(RelationEvaluatorTest, InvalidHandleRejected) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  EXPECT_THROW(eval.handle_at(0), ContractViolation);
  // A default-constructed handle was minted by no evaluator.
  EXPECT_THROW(eval.event(EventHandle{}), ContractViolation);
}

TEST(RelationEvaluatorTest, HandlesFromAnotherEvaluatorRejected) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval_a(ts);
  RelationEvaluator eval_b(ts);
  const auto ha = eval_a.add_event(NonatomicEvent(exec, {EventId{0, 1}}, "A"));
  const auto hb = eval_b.add_event(NonatomicEvent(exec, {EventId{1, 1}}, "B"));
  EXPECT_NE(ha, hb);  // same index, different evaluator id
  EXPECT_EQ(ha.index(), hb.index());
  EXPECT_THROW(eval_a.event(hb), ContractViolation);
  EXPECT_THROW(
      eval_a.holds({Relation::R1, ProxyKind::End, ProxyKind::Begin}, ha, hb),
      ContractViolation);
  // handle_at re-mints the same strong handle.
  EXPECT_EQ(eval_a.handle_at(0), ha);
  EXPECT_EQ(eval_a.handles(), std::vector<EventHandle>{ha});
}

TEST(RelationEvaluatorTest, HoldsEvaluatesProxyPair) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  // X = all of p0's events, Y = all of p1's events: a2 ≺ b2 via the message.
  const auto hx = eval.add_event(NonatomicEvent(
      exec, {EventId{0, 1}, EventId{0, 2}, EventId{0, 3}}, "X"));
  const auto hy = eval.add_event(NonatomicEvent(
      exec, {EventId{1, 1}, EventId{1, 2}, EventId{1, 3}}, "Y"));
  // End-of-X (a3) does not precede begin-of-Y (b1): R1(U,L) fails...
  EXPECT_FALSE(
      eval.holds({Relation::R1, ProxyKind::End, ProxyKind::Begin}, hx, hy));
  // ...but begin-of-X (a1) precedes end-of-Y (b3): R1(L,U) holds.
  EXPECT_TRUE(
      eval.holds({Relation::R1, ProxyKind::Begin, ProxyKind::End}, hx, hy));
  // R4(U,U): a3 precedes nothing in Y; U(X)={a3} so R4 fails.
  EXPECT_FALSE(
      eval.holds({Relation::R4, ProxyKind::End, ProxyKind::End}, hx, hy));
  // R4(L,U): a1 ≺ b3.
  EXPECT_TRUE(
      eval.holds({Relation::R4, ProxyKind::Begin, ProxyKind::End}, hx, hy));
}

TEST(RelationEvaluatorTest, ExplicitCostSinkReceivesPerCallCost) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  const auto hx = eval.add_event(NonatomicEvent(exec, {EventId{0, 1}}, "X"));
  const auto hy = eval.add_event(NonatomicEvent(exec, {EventId{1, 2}}, "Y"));
  QueryCost cost;
  (void)eval.holds({Relation::R4, ProxyKind::Begin, ProxyKind::Begin}, hx, hy,
                   &cost);
  EXPECT_EQ(cost.integer_comparisons, 1u);
  (void)eval.holds_naive({Relation::R4, ProxyKind::Begin, ProxyKind::Begin},
                         hx, hy, Semantics::Weak, &cost);
  EXPECT_EQ(cost.causality_checks, 1u);
  // Sink-routed calls bypass the shared tally entirely.
  EXPECT_EQ(eval.accumulated_cost(), QueryCost{});
  // all_holding reports its own exact cost on the result.
  const auto all = eval.all_holding(hx, hy, &cost);
  EXPECT_GT(all.cost.integer_comparisons, 0u);
  EXPECT_EQ(cost.integer_comparisons, 1u + all.cost.integer_comparisons);
}

TEST(RelationEvaluatorTest, SharedTallyAccumulatesAndResets) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  const auto hx = eval.add_event(NonatomicEvent(exec, {EventId{0, 1}}, "X"));
  const auto hy = eval.add_event(NonatomicEvent(exec, {EventId{1, 2}}, "Y"));
  EXPECT_EQ(eval.accumulated_cost().integer_comparisons, 0u);
  (void)eval.holds({Relation::R4, ProxyKind::Begin, ProxyKind::Begin}, hx, hy);
  EXPECT_EQ(eval.accumulated_cost().integer_comparisons, 1u);
  (void)eval.holds_naive({Relation::R4, ProxyKind::Begin, ProxyKind::Begin},
                         hx, hy);
  EXPECT_EQ(eval.accumulated_cost().causality_checks, 1u);
  eval.charge(QueryCost{10, 20});
  EXPECT_EQ(eval.accumulated_cost().integer_comparisons, 11u);
  EXPECT_EQ(eval.accumulated_cost().causality_checks, 21u);
  eval.reset_accumulated_cost();
  EXPECT_EQ(eval.accumulated_cost(), QueryCost{});
}

TEST(RelationEvaluatorTest, RejectsForeignEvents) {
  const Execution exec_a = two_process_message();
  const Execution exec_b = two_process_message();
  const Timestamps ts(exec_a);
  RelationEvaluator eval(ts);
  EXPECT_THROW(eval.add_event(NonatomicEvent(exec_b, {EventId{0, 1}})),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Property sweep: the evaluator's 32-relation answers match the definitional
// evaluation of R(X̂, Ŷ) on the proxies, for every member of R.
// ---------------------------------------------------------------------------

class EvaluatorPropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(EvaluatorPropertyTest, FastMatchesNaiveOnAll32Relations) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xcccc);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2 + 1);
  spec.max_events_per_node = 3;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));
  for (const RelationId& id : all_relation_ids()) {
    ASSERT_EQ(eval.holds(id, hx, hy),
              eval.holds_naive(id, hx, hy, Semantics::Weak))
        << to_string(id);
  }
}

TEST_P(EvaluatorPropertyTest, AllHoldingListsExactlyTheHolders) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xdddd);
  IntervalSpec spec;
  spec.node_count = 2;
  spec.max_events_per_node = 2;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));
  const auto result = eval.all_holding(hx, hy);
  std::size_t expected = 0;
  for (const RelationId& id : all_relation_ids()) {
    if (eval.holds(id, hx, hy)) ++expected;
  }
  EXPECT_EQ(result.holding.size(), expected);
}

TEST_P(EvaluatorPropertyTest, StrictMatchesNaiveStrictEvenWithOverlap) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xeeee);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2 + 1);
  spec.max_events_per_node = 3;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));
  // Also a deliberately self-overlapping pair.
  const auto hz = eval.add_event(
      NonatomicEvent(exec, eval.event(hx).events(), "Z"));
  for (const RelationId& id : all_relation_ids()) {
    ASSERT_EQ(eval.holds_strict(id, hx, hy),
              eval.holds_naive(id, hx, hy, Semantics::Strict))
        << to_string(id);
    ASSERT_EQ(eval.holds_strict(id, hx, hz),
              eval.holds_naive(id, hx, hz, Semantics::Strict))
        << to_string(id) << " (overlapping pair)";
  }
}

TEST_P(EvaluatorPropertyTest, GlobalProxiesMatchNaiveWhenTheyExist) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xffff);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 2;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));
  const auto gx_begin =
      eval.event(hx).proxy_global(ProxyKind::Begin, ts);
  const auto gy_begin =
      eval.event(hy).proxy_global(ProxyKind::Begin, ts);
  const RelationId id{Relation::R2, ProxyKind::Begin, ProxyKind::Begin};
  const auto result = eval.holds_global_proxies(id, hx, hy);
  if (!gx_begin || !gy_begin) {
    EXPECT_FALSE(result.has_value());
  } else {
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*result, evaluate_naive(Relation::R2, *gx_begin, *gy_begin, ts,
                                      Semantics::Weak));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EvaluatorPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
