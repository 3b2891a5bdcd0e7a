// Theorem 20 as a hard, instrumented assertion: the fast evaluator never
// spends more integer comparisons than the per-relation bound, and the
// bounds are tight (attained on worst-case inputs).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/evaluator.hpp"
#include "relations/fast.hpp"
#include "relations/hierarchy.hpp"
#include "sim/interval_picker.hpp"

namespace syncon {
namespace {

using testing::property_sweep;

class Theorem20Test : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(Theorem20Test, ComparisonsNeverExceedBound) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xb0b0);
  IntervalSpec spec;
  spec.node_count = exec.process_count();
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 50; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    const EventCuts xc(ts, x), yc(ts, y);
    for (const Relation r : kAllRelations) {
      QueryCost counter;
      (void)evaluate_fast(r, xc, yc, counter);
      const std::uint64_t bound =
          theorem20_bound(r, x.node_count(), y.node_count());
      ASSERT_LE(counter.integer_comparisons, bound)
          << to_string(r) << ": |N_X|=" << x.node_count()
          << " |N_Y|=" << y.node_count();
      ASSERT_GE(counter.integer_comparisons, 1u);
    }
  }
}

TEST(Theorem20TightnessTest, BoundsAttainedWhenRelationHolds) {
  // When every per-node test passes (relation true for the conjunctive
  // forms), the evaluator must spend exactly the bound — no early exit.
  ExecutionBuilder b(6);
  // Three "X" processes whose events all precede three "Y" processes' via a
  // relay through process 0's send.
  std::vector<MessageToken> x_tokens;
  std::vector<EventId> x_events;
  for (ProcessId p = 0; p < 3; ++p) {
    EventId e;
    x_tokens.push_back(b.send(p, &e));
    x_events.push_back(e);
  }
  std::vector<EventId> y_events;
  // Process 3 gathers all X sends, then multicasts to 4 and 5.
  const EventId gather = b.receive_all(3, x_tokens);
  y_events.push_back(gather);
  const MessageToken relay = b.send(3);
  y_events.push_back(EventId{3, 2});
  y_events.push_back(b.receive(4, relay));
  y_events.push_back(b.receive(5, relay));
  const Execution exec = b.build();
  const Timestamps ts(exec);

  const NonatomicEvent x(exec, x_events, "X");   // |N_X| = 3
  const NonatomicEvent y(exec, y_events, "Y");   // |N_Y| = 3
  const EventCuts xc(ts, x), yc(ts, y);

  for (const Relation r : kAllRelations) {
    QueryCost counter;
    ASSERT_TRUE(evaluate_fast(r, xc, yc, counter)) << to_string(r);
    // Conjunctive relations (per-node ∀ tests) cannot exit early when they
    // hold, so they attain the bound exactly; the single-≪ relations exit
    // at the first witnessing node.
    const bool conjunctive = r == Relation::R1 || r == Relation::R1p ||
                             r == Relation::R2 || r == Relation::R3p;
    if (conjunctive) {
      EXPECT_EQ(counter.integer_comparisons,
                theorem20_bound(r, x.node_count(), y.node_count()))
          << to_string(r);
    } else {
      EXPECT_GE(counter.integer_comparisons, 1u);
    }
  }
}

TEST(Theorem20TightnessTest, BoundsAttainedWhenRelationFails) {
  // Fully concurrent X and Y: the single-≪ (existential) relations scan
  // every probe node without finding a violation — exactly the bound.
  ExecutionBuilder b(6);
  std::vector<EventId> x_events, y_events;
  for (ProcessId p = 0; p < 3; ++p) x_events.push_back(b.local(p));
  for (ProcessId p = 3; p < 6; ++p) y_events.push_back(b.local(p));
  const Execution exec = b.build();
  const Timestamps ts(exec);
  const NonatomicEvent x(exec, x_events, "X");
  const NonatomicEvent y(exec, y_events, "Y");
  const EventCuts xc(ts, x), yc(ts, y);

  for (const Relation r :
       {Relation::R2p, Relation::R3, Relation::R4, Relation::R4p}) {
    QueryCost counter;
    ASSERT_FALSE(evaluate_fast(r, xc, yc, counter)) << to_string(r);
    EXPECT_EQ(counter.integer_comparisons,
              theorem20_bound(r, x.node_count(), y.node_count()))
        << to_string(r);
  }
}

TEST(Theorem20BoundTableTest, MatchesDesignDoc) {
  // R1/R1'/R4/R4': min; R2/R3: |N_X|; R2'/R3': |N_Y|.
  EXPECT_EQ(theorem20_bound(Relation::R1, 3, 7), 3u);
  EXPECT_EQ(theorem20_bound(Relation::R1p, 7, 3), 3u);
  EXPECT_EQ(theorem20_bound(Relation::R4, 5, 2), 2u);
  EXPECT_EQ(theorem20_bound(Relation::R4p, 2, 5), 2u);
  EXPECT_EQ(theorem20_bound(Relation::R2, 3, 7), 3u);
  EXPECT_EQ(theorem20_bound(Relation::R3, 3, 7), 3u);
  EXPECT_EQ(theorem20_bound(Relation::R2p, 3, 7), 7u);
  EXPECT_EQ(theorem20_bound(Relation::R3p, 3, 7), 7u);
}

TEST(Theorem20BoundTableTest, PaperBoundDiffersOnlyOnR2pR3) {
  for (const Relation r : kAllRelations) {
    const std::uint64_t ours = theorem20_bound(r, 4, 9);
    const std::uint64_t papers = theorem20_paper_bound(r, 4, 9);
    if (r == Relation::R2p) {
      EXPECT_EQ(ours, 9u);
      EXPECT_EQ(papers, 4u);
    } else if (r == Relation::R3) {
      EXPECT_EQ(ours, 4u);
      EXPECT_EQ(papers, 4u);  // same here since |N_X| < |N_Y|
    } else {
      EXPECT_EQ(ours, papers);
    }
  }
  // R3's divergence shows when |N_Y| < |N_X|.
  EXPECT_EQ(theorem20_bound(Relation::R3, 9, 4), 9u);
  EXPECT_EQ(theorem20_paper_bound(Relation::R3, 9, 4), 4u);
}

// The evaluator probes its registration blocks through borrowed views; the
// verdict and the exact comparison count of every member of R, in both
// argument orders, must be those of evaluate_fast over the proxies' own
// EventCuts, and the all-relations sweeps must be the per-relation sums.
TEST(ProbeViewTest, ProbeViewMatchesEventCuts) {
  const auto ids = all_relation_ids();
  const ImplicationClosure& closure = implication_closure();
  for (const std::size_t processes : {4u, 16u, 64u}) {
    WorkloadConfig cfg;
    cfg.process_count = processes;
    cfg.events_per_process = 12;
    cfg.seed = 2000 + processes;
    SYNCON_SEED_TRACE(cfg.seed);
    const Execution exec = generate_execution(cfg);
    const Timestamps ts(exec);
    RelationEvaluator eval(ts);
    Xoshiro256StarStar rng(cfg.seed);
    for (int k = 0; k < 8; ++k) {
      IntervalSpec spec;
      spec.node_count = 1 + rng.below(processes);
      spec.max_events_per_node = 3;
      eval.add_event(
          random_interval(exec, rng, spec, "W" + std::to_string(k)));
    }
    const std::vector<EventHandle> hs = eval.handles();
    for (const EventHandle x : hs) {
      for (const EventHandle y : hs) {
        std::uint32_t mask = 0;
        QueryCost total;
        std::array<QueryCost, 32> each{};
        for (std::size_t k = 0; k < ids.size(); ++k) {
          const RelationId& id = ids[k];
          const NonatomicEvent px = eval.proxy(x, id.proxy_x);
          const NonatomicEvent py = eval.proxy(y, id.proxy_y);
          QueryCost want;
          const bool expected = evaluate_fast(
              id.relation, EventCuts(ts, px), EventCuts(ts, py), want);
          const bool got = eval.holds(id, x, y, &each[k]);
          ASSERT_EQ(got, expected) << to_string(id);
          ASSERT_EQ(each[k], want) << to_string(id);
          if (got) mask |= 1u << k;
          total += each[k];
        }
        const auto all = eval.all_holding(x, y);
        EXPECT_EQ(all.holding.mask(), mask);
        EXPECT_EQ(all.cost, total);
        EXPECT_EQ(all.evaluated, ids.size());

        // The lattice walk all_holding_pruned takes, replayed on the
        // per-relation verdicts and costs.
        QueryCost walked;
        std::size_t evaluated = 0;
        std::uint32_t undecided = RelationSet::all().mask();
        while (undecided != 0) {
          const auto k = static_cast<std::size_t>(std::countr_zero(undecided));
          ++evaluated;
          walked += each[k];
          undecided &= ~((mask >> k) & 1u ? closure.implied_true[k].mask()
                                           : closure.implied_false[k].mask());
        }
        const auto pruned = eval.all_holding_pruned(x, y);
        EXPECT_EQ(pruned.holding.mask(), mask);
        EXPECT_EQ(pruned.cost, walked);
        EXPECT_EQ(pruned.evaluated, evaluated);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem20Test,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
