// Larger randomized campaigns than the per-module property sweeps: bigger
// executions, adversarial topologies, and overlap-heavy interval pairs,
// cross-checking every evaluation tier. Kept to a few seconds total.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "online/interval_tracker.hpp"
#include "online/online_evaluator.hpp"
#include "online/online_system.hpp"
#include "relations/evaluator.hpp"
#include "relations/fast.hpp"
#include "relations/naive.hpp"
#include "sim/interval_picker.hpp"

namespace syncon {
namespace {

// A long dependency chain: every process sends to the next, maximizing
// causal depth (vector clocks become dense).
Execution chain_execution(std::size_t processes, std::size_t hops) {
  ExecutionBuilder b(processes);
  MessageToken token = b.send(0);
  ProcessId holder = 0;
  for (std::size_t k = 0; k < hops; ++k) {
    const auto next = static_cast<ProcessId>((holder + 1) % processes);
    b.receive(next, token);
    b.local(next);
    token = b.send(next);
    holder = next;
  }
  return b.build();  // final token stays in flight
}

// A star: one hub exchanging with many leaves — wide, shallow causality.
Execution star_execution(std::size_t leaves, std::size_t rounds) {
  ExecutionBuilder b(leaves + 1);
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<MessageToken> in;
    for (ProcessId leaf = 1; leaf <= leaves; ++leaf) {
      b.local(leaf);
      in.push_back(b.send(leaf));
    }
    b.receive_all(0, in);
    const MessageToken out = b.send(0);
    for (ProcessId leaf = 1; leaf <= leaves; ++leaf) {
      b.receive(leaf, out);
    }
  }
  return b.build();
}

void cross_check_all_tiers(const Execution& exec, std::uint64_t seed,
                           int trials) {
  SYNCON_SEED_TRACE(seed);
  const Timestamps ts(exec);
  const OnlineSystem sys = replay(exec);
  Xoshiro256StarStar rng(seed);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(2, exec.process_count() / 2);
  spec.max_events_per_node = 5;
  for (int t = 0; t < trials; ++t) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const EventCuts xc(ts, x), yc(ts, y);
    IntervalTracker tx("X"), ty("Y");
    for (const EventId& e : x.events()) tx.add(sys, e);
    for (const EventId& e : y.events()) ty.add(sys, e);
    const IntervalSummary sx = tx.summary(), sy = ty.summary();
    for (const Relation r : kAllRelations) {
      QueryCost c;
      const bool truth = evaluate_naive(r, x, y, ts, Semantics::Weak);
      ASSERT_EQ(evaluate_fast(r, xc, yc, c), truth) << to_string(r);
      ASSERT_EQ(evaluate_proxy_naive(r, x, y, ts, Semantics::Weak), truth);
      ASSERT_EQ(evaluate_online(r, sx, sy, c), truth) << to_string(r);
      ASSERT_LE(c.integer_comparisons,
                theorem20_bound(r, x.node_count(), y.node_count()) +
                    online_cost_bound(r, sx.node_count(), sy.node_count()));
    }
  }
}

TEST(StressTest, LongChainsDeepCausality) {
  const Execution exec = chain_execution(8, 120);
  cross_check_all_tiers(exec, 97, testing::test_iters(150));
}

TEST(StressTest, WideStarsShallowCausality) {
  const Execution exec = star_execution(12, 8);
  cross_check_all_tiers(exec, 98, testing::test_iters(150));
}

TEST(StressTest, LargeRandomWorkload) {
  WorkloadConfig cfg;
  cfg.process_count = 24;
  cfg.events_per_process = 80;
  cfg.send_probability = 0.4;
  cfg.seed = 4096;
  const Execution exec = generate_execution(cfg);
  cross_check_all_tiers(exec, 99, testing::test_iters(200));
}

TEST(StressTest, DensePhasesWorkload) {
  WorkloadConfig cfg;
  cfg.topology = Topology::Phases;
  cfg.process_count = 16;
  cfg.events_per_process = 48;
  cfg.phase_count = 8;
  cfg.seed = 512;
  const Execution exec = generate_execution(cfg);
  cross_check_all_tiers(exec, 100, testing::test_iters(150));
}

TEST(StressTest, HeavyOverlapPairs) {
  // X and Y drawn from the same window so they share many events: strict
  // and weak must still agree pairwise with their own reference tiers.
  WorkloadConfig cfg;
  cfg.process_count = 10;
  cfg.events_per_process = 40;
  cfg.seed = 77;
  const Execution exec = generate_execution(cfg);
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(1);
  SYNCON_SEED_TRACE(1);
  IntervalSpec spec;
  spec.node_count = 6;
  spec.max_events_per_node = 6;
  const int trials = testing::test_iters(60);
  for (int t = 0; t < trials; ++t) {
    NonatomicEvent base = random_interval(exec, rng, spec, "B");
    // Y = base plus a few extra events; X = base.
    std::vector<EventId> extended = base.events();
    const NonatomicEvent extra = random_interval(exec, rng, spec, "E");
    extended.insert(extended.end(), extra.events().begin(),
                    extra.events().end());
    const auto hx = eval.add_event(NonatomicEvent(
        exec, base.events(), "X" + std::to_string(t)));
    const auto hy = eval.add_event(
        NonatomicEvent(exec, extended, "Y" + std::to_string(t)));
    for (const RelationId& id : all_relation_ids()) {
      ASSERT_EQ(eval.holds(id, hx, hy),
                eval.holds_naive(id, hx, hy, Semantics::Weak));
      ASSERT_EQ(eval.holds_strict(id, hx, hy),
                eval.holds_naive(id, hx, hy, Semantics::Strict));
    }
  }
}

TEST(StressTest, EvaluatorScalesToManyIntervals) {
  WorkloadConfig cfg;
  cfg.process_count = 16;
  cfg.events_per_process = 60;
  cfg.seed = 2025;
  const Execution exec = generate_execution(cfg);
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(5);
  IntervalSpec spec;
  spec.node_count = 8;
  spec.max_events_per_node = 4;
  constexpr std::size_t kCount = 40;
  for (std::size_t i = 0; i < kCount; ++i) {
    eval.add_event(random_interval(exec, rng, spec, "I" + std::to_string(i)));
  }
  // All-pairs pruned queries stay consistent with exhaustive ones.
  std::size_t checked = 0;
  for (std::size_t x = 0; x < kCount; x += 7) {
    for (std::size_t y = 1; y < kCount; y += 5) {
      if (x == y) continue;
      const auto a = eval.all_holding(eval.handle_at(x), eval.handle_at(y));
      const auto b =
          eval.all_holding_pruned(eval.handle_at(x), eval.handle_at(y));
      ASSERT_EQ(a.holding.size(), b.holding.size());
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);
}

}  // namespace
}  // namespace syncon
