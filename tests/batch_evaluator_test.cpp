// Concurrency tests for the batch-query engine: parallel sweeps must be
// observationally identical to serial ones (same holding sets, same exact
// comparison totals), and the const query API must tolerate many threads
// hammering one shared RelationEvaluator. Run under the `tsan` preset to
// have ThreadSanitizer check the same properties for data races.
#include "relations/batch.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "helpers.hpp"
#include "monitor/monitor.hpp"
#include "relations/evaluator.hpp"
#include "support/contracts.hpp"
#include "support/thread_pool.hpp"

namespace syncon {
namespace {

// A seeded mid-size workload shared by the determinism tests.
struct Seeded {
  Execution exec;
  std::unique_ptr<Timestamps> ts;
  std::unique_ptr<RelationEvaluator> eval;

  static WorkloadConfig config(std::uint64_t seed) {
    WorkloadConfig cfg;
    cfg.process_count = 12;
    cfg.events_per_process = 40;
    cfg.send_probability = 0.35;
    cfg.seed = seed;
    return cfg;
  }

  explicit Seeded(std::uint64_t seed, std::size_t intervals = 14)
      : exec(generate_execution(config(seed))) {
    ts = std::make_unique<Timestamps>(exec);
    eval = std::make_unique<RelationEvaluator>(*ts);
    Xoshiro256StarStar rng(seed ^ 0xb47c8ULL);
    IntervalSpec spec;
    spec.node_count = 5;
    spec.max_events_per_node = 4;
    for (std::size_t i = 0; i < intervals; ++i) {
      eval->add_event(random_interval(exec, rng, spec,
                                      "I" + std::to_string(i)));
    }
  }
};

void expect_identical(const BatchEvaluator::Result& serial,
                      const BatchEvaluator::Result& parallel) {
  ASSERT_EQ(serial.pairs.size(), parallel.pairs.size());
  for (std::size_t i = 0; i < serial.pairs.size(); ++i) {
    const auto& a = serial.pairs[i];
    const auto& b = parallel.pairs[i];
    ASSERT_EQ(a.x, b.x) << "pair " << i;
    ASSERT_EQ(a.y, b.y) << "pair " << i;
    ASSERT_EQ(a.relations.holding, b.relations.holding) << "pair " << i;
    ASSERT_EQ(a.relations.evaluated, b.relations.evaluated) << "pair " << i;
    ASSERT_EQ(a.relations.cost, b.relations.cost) << "pair " << i;
  }
  EXPECT_EQ(serial.cost, parallel.cost);
}

TEST(BatchEvaluatorTest, ParallelSweepIsBitIdenticalToSerial) {
  for (const std::uint64_t seed : {7u, 1234u, 999u}) {
    const Seeded s(seed);
    const BatchEvaluator serial(*s.eval, nullptr);
    for (const bool pruned : {true, false}) {
      const auto reference = serial.all_pairs(pruned);
      EXPECT_EQ(reference.threads_used, 1u);
      for (const std::size_t threads : {2u, 3u, 8u}) {
        ThreadPool pool(threads);
        const BatchEvaluator parallel(*s.eval, &pool);
        const auto result = parallel.all_pairs(pruned);
        EXPECT_GT(result.threads_used, 1u);
        expect_identical(reference, result);
      }
    }
  }
}

// Counted work of both sweeps, pinned on one seeded case: the evaluation
// counts, comparison totals and holding totals the sweeps have always
// produced here. A change to the sweep machinery must leave them alone.
TEST(BatchEvaluatorTest, PinnedSweepCountsStayPut) {
  const Seeded s(7);
  const BatchEvaluator serial(*s.eval, nullptr);
  const auto full = serial.all_pairs(/*pruned=*/false);
  const auto pruned = serial.all_pairs(/*pruned=*/true);
  EXPECT_EQ(full.evaluated_total(), 14u * 13u * 32u);
  EXPECT_EQ(full.cost.integer_comparisons, 14172u);
  EXPECT_EQ(pruned.evaluated_total(), 1841u);
  EXPECT_EQ(pruned.cost.integer_comparisons, 4708u);
  EXPECT_EQ(full.holding_total(), 1733u);
  EXPECT_EQ(pruned.holding_total(), full.holding_total());
}

TEST(BatchEvaluatorTest, ResultAggregationMatchesPerPairCosts) {
  const Seeded s(42);
  ThreadPool pool(4);
  const auto result = BatchEvaluator(*s.eval, &pool).all_pairs();
  QueryCost summed;
  std::size_t evaluated = 0;
  for (const auto& p : result.pairs) {
    summed += p.relations.cost;
    evaluated += p.relations.evaluated;
  }
  EXPECT_EQ(result.cost, summed);
  EXPECT_EQ(result.evaluated_total(), evaluated);
  EXPECT_GT(result.holding_total(), 0u);
  EXPECT_GT(result.comparisons_per_query(), 0.0);
  // The explicit sinks kept the evaluator's shared tally untouched.
  EXPECT_EQ(s.eval->accumulated_cost(), QueryCost{});
}

TEST(BatchEvaluatorTest, ExplicitPairListRespectsInputOrder) {
  const Seeded s(5, 6);
  const auto hs = s.eval->handles();
  std::vector<std::pair<EventHandle, EventHandle>> pairs;
  for (std::size_t i = hs.size(); i-- > 1;) {
    pairs.emplace_back(hs[i], hs[i - 1]);  // deliberately reversed order
  }
  ThreadPool pool(3);
  const auto result = BatchEvaluator(*s.eval, &pool).evaluate_pairs(pairs);
  ASSERT_EQ(result.pairs.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(result.pairs[i].x, pairs[i].first);
    EXPECT_EQ(result.pairs[i].y, pairs[i].second);
  }
}

// Many threads share one const evaluator, each with a private cost sink.
// Answers must agree with a serial reference, and per-thread costs must sum
// to exactly thread_count × the serial cost.
TEST(BatchEvaluatorStressTest, ConcurrentQueriesOnSharedEvaluator) {
  const Seeded s(2024, 10);
  const auto hs = s.eval->handles();
  const auto ids = all_relation_ids();

  // Serial reference pass.
  std::vector<bool> reference;
  QueryCost serial_cost;
  for (const auto& x : hs) {
    for (const auto& y : hs) {
      if (x == y) continue;
      for (const RelationId& id : ids) {
        reference.push_back(s.eval->holds(id, x, y, &serial_cost));
      }
      reference.push_back(
          s.eval->holds_strict(ids[3], x, y, &serial_cost));
      reference.push_back(
          !s.eval->all_holding_pruned(x, y, &serial_cost).holding.empty());
    }
  }

  constexpr std::size_t kThreads = 8;
  std::vector<QueryCost> costs(kThreads);
  std::vector<std::vector<bool>> answers(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryCost& cost = costs[t];
      std::vector<bool>& out = answers[t];
      out.reserve(reference.size());
      for (const auto& x : hs) {
        for (const auto& y : hs) {
          if (x == y) continue;
          for (const RelationId& id : ids) {
            out.push_back(s.eval->holds(id, x, y, &cost));
          }
          out.push_back(s.eval->holds_strict(ids[3], x, y, &cost));
          out.push_back(
              !s.eval->all_holding_pruned(x, y, &cost).holding.empty());
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  QueryCost total;
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(answers[t], reference) << "thread " << t;
    total += costs[t];
  }
  EXPECT_EQ(total.integer_comparisons,
            kThreads * serial_cost.integer_comparisons);
  EXPECT_EQ(total.causality_checks, kThreads * serial_cost.causality_checks);
  // None of the sink-routed queries touched the shared tally.
  EXPECT_EQ(s.eval->accumulated_cost(), QueryCost{});
}

// Sink-less queries fold into the lock-free shared tally; under concurrency
// the tally must still equal the exact total.
TEST(BatchEvaluatorStressTest, SharedTallyIsExactUnderConcurrency) {
  const Seeded s(77, 6);
  const auto hs = s.eval->handles();
  const RelationId id{Relation::R1, ProxyKind::End, ProxyKind::Begin};

  QueryCost one_pass;
  for (const auto& x : hs) {
    for (const auto& y : hs) {
      if (x != y) (void)s.eval->holds(id, x, y, &one_pass);
    }
  }

  constexpr std::size_t kThreads = 6;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (const auto& x : hs) {
        for (const auto& y : hs) {
          if (x != y) (void)s.eval->holds(id, x, y);  // no sink
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(s.eval->accumulated_cost().integer_comparisons,
            kThreads * one_pass.integer_comparisons);
}

// A stampless evaluator whose first block read, and first reference query,
// come from many threads at once: the seal and the stamps are each made
// once behind their guards, and every answer and cost equals the serial
// sweep over an evaluator built over Timestamps.
struct Stampless {
  Execution exec;
  RelationEvaluator eval;

  explicit Stampless(std::uint64_t seed, std::size_t intervals = 14)
      : exec(generate_execution(Seeded::config(seed))), eval(exec) {
    Xoshiro256StarStar rng(seed ^ 0xb47c8ULL);
    IntervalSpec spec;
    spec.node_count = 5;
    spec.max_events_per_node = 4;
    for (std::size_t i = 0; i < intervals; ++i) {
      eval.add_event(random_interval(exec, rng, spec,
                                     "I" + std::to_string(i)));
    }
  }
};

TEST(BatchEvaluatorStressTest, FirstQueryFromAParallelSweepSeals) {
  for (const bool pruned : {true, false}) {
    const Seeded reference(7);
    const Stampless s(7);
    const auto serial = BatchEvaluator(*reference.eval).all_pairs(pruned);
    ThreadPool pool(4);
    const auto parallel = BatchEvaluator(s.eval, &pool).all_pairs(pruned);
    EXPECT_GT(parallel.threads_used, 1u);
    ASSERT_EQ(serial.pairs.size(), parallel.pairs.size());
    for (std::size_t i = 0; i < serial.pairs.size(); ++i) {
      const auto& a = serial.pairs[i];
      const auto& b = parallel.pairs[i];
      ASSERT_EQ(a.x.index(), b.x.index()) << "pair " << i;
      ASSERT_EQ(a.y.index(), b.y.index()) << "pair " << i;
      ASSERT_EQ(a.relations.holding, b.relations.holding) << "pair " << i;
      ASSERT_EQ(a.relations.evaluated, b.relations.evaluated) << "pair " << i;
      ASSERT_EQ(a.relations.cost, b.relations.cost) << "pair " << i;
    }
    EXPECT_EQ(serial.cost, parallel.cost);
  }
}

TEST(BatchEvaluatorStressTest, FirstQueriesFromManyThreadsSealAndStampOnce) {
  const Seeded reference(2024, 10);
  const Stampless s(2024, 10);
  const auto ids = all_relation_ids();
  const std::size_t n = s.eval.event_count();
  std::vector<bool> want;
  QueryCost want_cost;
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      const EventHandle hx = reference.eval->handle_at(x);
      const EventHandle hy = reference.eval->handle_at(y);
      want.push_back(
          reference.eval->holds_naive(ids[5], hx, hy, Semantics::Weak,
                                      &want_cost));
      for (const RelationId& id : ids) {
        want.push_back(reference.eval->holds(id, hx, hy, &want_cost));
      }
    }
  }

  constexpr std::size_t kThreads = 6;
  std::vector<std::vector<bool>> got(kThreads);
  std::vector<QueryCost> costs(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t x = 0; x < n; ++x) {
        for (std::size_t y = 0; y < n; ++y) {
          const EventHandle hx = s.eval.handle_at(x);
          const EventHandle hy = s.eval.handle_at(y);
          got[t].push_back(
              s.eval.holds_naive(ids[5], hx, hy, Semantics::Weak, &costs[t]));
          for (const RelationId& id : ids) {
            got[t].push_back(s.eval.holds(id, hx, hy, &costs[t]));
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], want) << "thread " << t;
    EXPECT_EQ(costs[t], want_cost) << "thread " << t;
  }
}

// Monitor-level wiring: parallel find_pairs and relations_all_pairs return
// exactly the serial answers and costs.
TEST(BatchEvaluatorTest, MonitorParallelScenarioMatchesSerial) {
  WorkloadConfig cfg;
  cfg.process_count = 8;
  cfg.events_per_process = 30;
  cfg.seed = 31;
  auto exec = std::make_shared<const Execution>(generate_execution(cfg));
  SyncMonitor m(exec);
  Xoshiro256StarStar rng(313);
  IntervalSpec spec;
  spec.node_count = 4;
  spec.max_events_per_node = 3;
  for (int i = 0; i < 10; ++i) {
    m.add_interval(random_interval(*exec, rng, spec, "I" + std::to_string(i)));
  }
  const SyncCondition cond = SyncCondition::parse("R1(U,L) | R4(L,U)");

  QueryCost serial_cost;
  const auto serial_pairs = m.find_pairs(cond, &serial_cost);
  const auto serial_sweep = m.relations_all_pairs();
  EXPECT_EQ(serial_sweep.threads_used, 1u);

  ThreadPool pool(4);
  m.use_thread_pool(&pool);
  QueryCost parallel_cost;
  const auto parallel_pairs = m.find_pairs(cond, &parallel_cost);
  const auto parallel_sweep = m.relations_all_pairs();
  EXPECT_GT(parallel_sweep.threads_used, 1u);

  EXPECT_EQ(serial_pairs, parallel_pairs);
  EXPECT_EQ(serial_cost, parallel_cost);
  expect_identical(serial_sweep, parallel_sweep);
  m.use_thread_pool(nullptr);  // detach before the pool dies
}

}  // namespace
}  // namespace syncon
