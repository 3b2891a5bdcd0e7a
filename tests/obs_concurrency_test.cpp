// Concurrency tests for the telemetry subsystem (DESIGN.md §3.8): sharded
// metric recording under ThreadPool::parallel_for must be race-free (run
// under the `tsan` preset) and deterministic — a parallel BatchEvaluator
// sweep with telemetry enabled reports bit-identical metric totals to the
// serial sweep, because per-shard slots are merged in shard order and every
// instrumented sample is integer-valued. Spans opened by pool tasks land
// whole in the span ring while the owner thread reads it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "json_checker.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "relations/batch.hpp"
#include "relations/evaluator.hpp"
#include "support/thread_pool.hpp"

namespace syncon {
namespace {

// A seeded mid-size workload (same shape as batch_evaluator_test.cpp).
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

class ObsConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::MetricRegistry::global().reset();
    obs::FlightRecorder::spans().clear();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::MetricRegistry::global().reset();
    obs::FlightRecorder::spans().clear();
  }
};

TEST_F(ObsConcurrencyTest, ShardedRecordingUnderParallelForIsDeterministic) {
  constexpr std::size_t kItems = 20'000;
  obs::HistogramSnapshot reference;
  std::uint64_t reference_total = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    obs::Counter counter;
    obs::Histogram histogram(obs::HistogramSpec::exponential(1.0, 16384.0));
    ThreadPool pool(threads);
    pool.parallel_for(
        kItems, [&](std::size_t shard, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            counter.add(1, shard);
            histogram.record(static_cast<double>(i % 997 + 1), shard);
          }
        });
    const obs::HistogramSnapshot snap = histogram.snapshot();
    EXPECT_EQ(counter.total(), kItems);
    if (threads == 1) {
      reference = snap;
      reference_total = counter.total();
      continue;
    }
    // Bit-identical to the serial run: counts, exact double sum, extrema.
    EXPECT_EQ(counter.total(), reference_total) << threads << " threads";
    EXPECT_EQ(snap.count, reference.count);
    EXPECT_EQ(snap.counts, reference.counts);
    EXPECT_EQ(snap.sum, reference.sum);  // exact: integer-valued samples
    EXPECT_EQ(snap.min, reference.min);
    EXPECT_EQ(snap.max, reference.max);
  }
}

// Metric families whose values are pure functions of the workload (never of
// wall time or scheduling): the determinism contract covers exactly these.
const char* const kDeterministicCounters[] = {
    "syncon_relation_queries_total",
    "syncon_relation_integer_comparisons_total",
    "syncon_relation_causality_checks_total",
    "syncon_batch_sweeps_total",
    "syncon_batch_pairs_total",
};
const char* const kDeterministicHistograms[] = {
    "syncon_relation_comparisons_per_query",
};

obs::MetricsSnapshot sweep_with_metrics(const Seeded& s, ThreadPool* pool) {
  obs::MetricRegistry::global().reset();
  obs::set_enabled(true);
  const BatchEvaluator batch(*s.eval, pool);
  const auto result = batch.all_pairs(/*pruned=*/true);
  obs::set_enabled(false);
  EXPECT_FALSE(result.pairs.empty());
  return obs::MetricRegistry::global().snapshot();
}

TEST_F(ObsConcurrencyTest, BatchSweepMetricsAreBitIdenticalAcrossThreadCounts) {
  const Seeded s(4242);
  const obs::MetricsSnapshot serial = sweep_with_metrics(s, nullptr);
  // Sanity: the instrumentation actually fired.
  EXPECT_GT(serial.counter_value("syncon_relation_queries_total"), 0u);
  EXPECT_EQ(serial.counter_value("syncon_batch_sweeps_total"), 1u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const obs::MetricsSnapshot parallel = sweep_with_metrics(s, &pool);
    for (const char* name : kDeterministicCounters) {
      EXPECT_EQ(parallel.counter_value(name), serial.counter_value(name))
          << name << " with " << threads << " threads";
    }
    for (const char* name : kDeterministicHistograms) {
      const auto* a = serial.find(name);
      const auto* b = parallel.find(name);
      ASSERT_NE(a, nullptr) << name;
      ASSERT_NE(b, nullptr) << name;
      const obs::HistogramSnapshot& ha = *a->histogram;
      const obs::HistogramSnapshot& hb = *b->histogram;
      EXPECT_EQ(hb.count, ha.count) << name;
      EXPECT_EQ(hb.counts, ha.counts) << name;
      EXPECT_EQ(hb.sum, ha.sum) << name;  // exact double equality
      EXPECT_EQ(hb.min, ha.min) << name;
      EXPECT_EQ(hb.max, ha.max) << name;
    }
  }
}

// A sweep writes one span, not one per pair, and its per-pair comparison
// counts reach the per-query histogram once each: n(n − 1) samples summing
// to the sweep's exact cost.
TEST_F(ObsConcurrencyTest, SweepWritesOneSpanAndOneSamplePerPair) {
  const Seeded s(4242);
  const std::size_t n = s.eval->event_count();
  s.eval->seal();
  ThreadPool pool(2);
  const BatchEvaluator batch(*s.eval, &pool);
  obs::set_enabled(true);
  const auto result = batch.all_pairs(/*pruned=*/true);
  obs::set_enabled(false);

  std::map<std::string, std::uint64_t> spans;
  for (const obs::SpanStats& stats :
       obs::aggregate_spans(obs::FlightRecorder::spans())) {
    spans[stats.name] = stats.count;
  }
  EXPECT_EQ(spans, (std::map<std::string, std::uint64_t>{{"batch/sweep", 1}}));

  const obs::MetricsSnapshot snap = obs::MetricRegistry::global().snapshot();
  const auto* per_query = snap.find("syncon_relation_comparisons_per_query");
  ASSERT_NE(per_query, nullptr);
  EXPECT_EQ(per_query->histogram->count, n * (n - 1));
  EXPECT_EQ(per_query->histogram->sum,
            static_cast<double>(result.cost.integer_comparisons));
}

TEST_F(ObsConcurrencyTest, DisabledSweepLeavesRegistryUntouched) {
  const Seeded s(99);
  obs::MetricRegistry::global().reset();
  ThreadPool pool(4);
  const BatchEvaluator batch(*s.eval, &pool);
  const auto result = batch.all_pairs(true);
  EXPECT_FALSE(result.pairs.empty());
  const obs::MetricsSnapshot snap = obs::MetricRegistry::global().snapshot();
  for (const char* name : kDeterministicCounters) {
    const auto* e = snap.find(name);
    // Either never registered in this process, or untouched since reset().
    if (e != nullptr) {
      EXPECT_EQ(e->counter_value, 0u) << name;
    }
  }
}

TEST_F(ObsConcurrencyTest, PoolInstrumentationCountsTasksAndShards) {
  obs::MetricRegistry::global().reset();
  obs::set_enabled(true);
  ThreadPool pool(3);
  pool.parallel_for(100, [](std::size_t, std::size_t, std::size_t) {});
  obs::set_enabled(false);
  const obs::MetricsSnapshot snap = obs::MetricRegistry::global().snapshot();
  EXPECT_EQ(snap.counter_value("syncon_pool_parallel_for_total"), 1u);
  const auto* shard_us = snap.find("syncon_pool_shard_us");
  ASSERT_NE(shard_us, nullptr);
  EXPECT_EQ(shard_us->histogram->count, pool.thread_count());
  const auto* imbalance = snap.find("syncon_pool_shard_imbalance_us");
  ASSERT_NE(imbalance, nullptr);
  EXPECT_EQ(imbalance->histogram->count, 1u);
}

TEST_F(ObsConcurrencyTest, PoolTaskSpansLandWholeWhileTheOwnerReads) {
  constexpr std::size_t kTasks = 400;
  const obs::FlightRecorder& ring = obs::FlightRecorder::spans();
  const auto opened = [](const char* name) {
    return std::strcmp(name, "test/even") == 0 ||
           std::strcmp(name, "test/odd") == 0;
  };
  ThreadPool pool(4);
  std::atomic<bool> done{false};
  obs::set_enabled(true);
  // One span per task; the pool's owner reads the ring meanwhile.
  std::thread producer([&] {
    pool.parallel_for(
        kTasks,
        [](std::size_t task, std::size_t, std::size_t) {
          SYNCON_SPAN(task % 2 == 0 ? "test/even" : "test/odd");
        },
        kTasks);
    done.store(true, std::memory_order_release);
  });
  std::size_t reads = 0;
  while (!done.load(std::memory_order_acquire) || reads == 0) {
    for (const obs::SpanStats& stats : obs::aggregate_spans(ring)) {
      EXPECT_TRUE(opened(stats.name.c_str())) << stats.name;
      EXPECT_LE(stats.count, kTasks);
    }
    ++reads;
  }
  producer.join();
  obs::set_enabled(false);

  const auto stats = obs::aggregate_spans(ring);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].count, kTasks / 2);  // test/even
  EXPECT_EQ(stats[1].count, kTasks / 2);  // test/odd
  const auto records = ring.dump();
  ASSERT_EQ(records.size(), kTasks);
  for (const obs::FlightRecord& r : records) {
    EXPECT_EQ(r.kind, obs::FlightKind::kSpan);
    EXPECT_TRUE(opened(obs::span_name(r))) << obs::span_name(r);
    EXPECT_GE(r.t_us, r.b);
  }
  std::ostringstream trace;
  obs::write_chrome_trace(trace, ring);
  EXPECT_TRUE(testing::JsonChecker(trace.str()).valid());
}

}  // namespace
}  // namespace syncon
