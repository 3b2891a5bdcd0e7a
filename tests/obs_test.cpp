// Telemetry subsystem tests (DESIGN.md §3.8): histogram bucket semantics,
// registry behavior, exporter round-trips (Prometheus text vs JSON snapshot
// of the same registry), Chrome trace-event well-formedness, the
// zero-allocation contract of spans (disabled, and enabled once the span
// ring exists), and the single-source health metrics of OnlineMonitor /
// DES fault stats.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "counting_new.hpp"
#include "json_checker.hpp"
#include "model/timestamps.hpp"
#include "monitor/monitor.hpp"
#include "obs/export.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/serve.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "online/online_monitor.hpp"
#include "online/online_system.hpp"
#include "sim/des.hpp"
#include "sim/faulty_channel.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

using testing::JsonChecker;

class ObsTest : public ::testing::Test {
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

TEST_F(ObsTest, EnabledFlagDefaultsOffAndToggles) {
  EXPECT_FALSE(obs::enabled());
  obs::set_enabled(true);
  EXPECT_TRUE(obs::enabled());
  obs::set_enabled(false);
  EXPECT_FALSE(obs::enabled());
}

TEST_F(ObsTest, CounterMergesShardsAndResets) {
  obs::Counter c;
  for (std::size_t shard = 0; shard < 40; ++shard) c.add(shard + 1, shard);
  EXPECT_EQ(c.total(), 40u * 41u / 2);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST_F(ObsTest, HistogramSpecFactories) {
  EXPECT_EQ(obs::HistogramSpec::exponential(1.0, 8.0).bounds,
            (std::vector<double>{1, 2, 4, 8}));
  EXPECT_EQ(obs::HistogramSpec::exponential(1.0, 5.0).bounds,
            (std::vector<double>{1, 2, 4, 8}));  // first bound >= hi ends it
  EXPECT_EQ(obs::HistogramSpec::linear(10.0, 10.0, 3).bounds,
            (std::vector<double>{10, 20, 30}));
  EXPECT_THROW(obs::HistogramSpec::exponential(0.0, 8.0), ContractViolation);
  EXPECT_THROW(obs::HistogramSpec::linear(0.0, 0.0, 3), ContractViolation);
}

TEST_F(ObsTest, HistogramBucketBoundariesUseLeSemantics) {
  obs::Histogram h(obs::HistogramSpec::linear(10.0, 10.0, 3));  // 10,20,30
  h.record(10.0);   // exactly on a bound -> that bucket (le semantics)
  h.record(10.5);   // above 10 -> next bucket
  h.record(20.0);
  h.record(30.0);
  h.record(30.01);  // past the last bound -> +Inf overflow bucket
  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 10.0 + 10.5 + 20.0 + 30.0 + 30.01);
  EXPECT_DOUBLE_EQ(snap.min, 10.0);
  EXPECT_DOUBLE_EQ(snap.max, 30.01);
}

TEST_F(ObsTest, HistogramQuantilesInterpolateAndClamp) {
  obs::Histogram single(obs::HistogramSpec::exponential(1.0, 64.0));
  for (int i = 0; i < 10; ++i) single.record(5.0);
  const obs::HistogramSnapshot one = single.snapshot();
  // All samples equal: every quantile clamps to the observed [min, max].
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 5.0);

  obs::Histogram spread(obs::HistogramSpec::linear(10.0, 10.0, 10));
  for (int v = 1; v <= 100; ++v) spread.record(v);
  const obs::HistogramSnapshot s = spread.snapshot();
  // Quantiles are monotone and bounded by the observed range.
  double last = s.quantile(0.0);
  for (const double q : {0.25, 0.5, 0.75, 0.95, 1.0}) {
    const double v = s.quantile(q);
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_GE(s.quantile(0.0), 1.0);
  EXPECT_LE(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 10.0);  // bucket interpolation

  obs::Histogram empty(obs::HistogramSpec::linear(1.0, 1.0, 2));
  EXPECT_THROW(empty.snapshot().quantile(0.5), ContractViolation);
  EXPECT_THROW(s.quantile(1.5), ContractViolation);
}

TEST_F(ObsTest, RegistryFindsOrCreatesAndKeepsReferencesStable) {
  auto& registry = obs::MetricRegistry::global();
  obs::Counter& a = registry.counter("syncon_test_stable");
  obs::Counter& b = registry.counter("syncon_test_stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  registry.reset();
  EXPECT_EQ(a.total(), 0u);  // zeroed, not invalidated
  a.add(2);
  EXPECT_EQ(registry.counter("syncon_test_stable").total(), 2u);

  const obs::HistogramSpec spec = obs::HistogramSpec::linear(1.0, 1.0, 4);
  registry.histogram("syncon_test_hist", spec);
  EXPECT_THROW(
      registry.histogram("syncon_test_hist",
                         obs::HistogramSpec::linear(1.0, 2.0, 4)),
      ContractViolation);
  EXPECT_THROW(registry.counter(""), ContractViolation);
}

TEST_F(ObsTest, SnapshotIsNameSortedAndQueryable) {
  auto& registry = obs::MetricRegistry::global();
  registry.counter("syncon_test_zz").add(7);
  registry.counter("syncon_test_aa").add(1);
  registry.gauge("syncon_test_mm").set(-4);
  const obs::MetricsSnapshot snap = registry.snapshot();
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
  }
  EXPECT_EQ(snap.counter_value("syncon_test_zz"), 7u);
  const auto* gauge = snap.find("syncon_test_mm");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->gauge_value, -4);
  EXPECT_EQ(snap.find("syncon_test_absent"), nullptr);
  EXPECT_THROW(snap.counter_value("syncon_test_absent"), ContractViolation);
}

TEST_F(ObsTest, GaugeSetMaxTracksHighWaterMark) {
  obs::Gauge& peak = obs::MetricRegistry::global().gauge("syncon_test_peak");
  peak.set(5);
  peak.set_max(3);  // below the current value: no change
  EXPECT_EQ(peak.value(), 5);
  peak.set_max(9);
  EXPECT_EQ(peak.value(), 9);
  peak.set_max(9);  // equal: no change
  EXPECT_EQ(peak.value(), 9);
  peak.set_max(-2);
  EXPECT_EQ(peak.value(), 9);
}

TEST_F(ObsTest, SanitizeMetricNameMapsToPrometheusCharset) {
  EXPECT_EQ(obs::sanitize_metric_name("relation/evaluate.us"),
            "relation_evaluate_us");
  EXPECT_EQ(obs::sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(obs::sanitize_metric_name("syncon_link_dropped{from=\"0\",to=\"1\"}"),
            "syncon_link_dropped{from=\"0\",to=\"1\"}");
}

TEST_F(ObsTest, PrometheusAndJsonExportTheSameValues) {
  auto& registry = obs::MetricRegistry::global();
  registry.counter("syncon_test_counter").add(5);
  registry.gauge("syncon_test_gauge").set(-3);
  registry.gauge("syncon_link_dropped{from=\"0\",to=\"1\"}").set(2);
  obs::Histogram& h = registry.histogram(
      "syncon_test_latency_us", obs::HistogramSpec::linear(10.0, 10.0, 2));
  h.record(10.0);
  h.record(15.0);
  h.record(99.0);
  const obs::MetricsSnapshot snap = registry.snapshot();

  const std::string prom = obs::prometheus_to_string(snap);
  EXPECT_NE(prom.find("# TYPE syncon_test_counter counter"),
            std::string::npos);
  EXPECT_NE(prom.find("syncon_test_counter 5"), std::string::npos);
  EXPECT_NE(prom.find("syncon_test_gauge -3"), std::string::npos);
  // Labeled gauge: the TYPE line names the base family only.
  EXPECT_NE(prom.find("# TYPE syncon_link_dropped gauge"), std::string::npos);
  EXPECT_NE(prom.find("syncon_link_dropped{from=\"0\",to=\"1\"} 2"),
            std::string::npos);
  // Histogram: cumulative buckets + implicit +Inf + _sum/_count.
  EXPECT_NE(prom.find("syncon_test_latency_us_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("syncon_test_latency_us_bucket{le=\"20\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("syncon_test_latency_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("syncon_test_latency_us_sum 124"), std::string::npos);
  EXPECT_NE(prom.find("syncon_test_latency_us_count 3"), std::string::npos);

  const std::string json = obs::json_to_string(snap, "obs_test");
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // The JSON snapshot renders the same registry values.
  EXPECT_NE(json.find("\"syncon_test_counter\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"syncon_test_gauge\": -3"), std::string::npos);
  EXPECT_NE(json.find("\"run\": \"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 124"), std::string::npos);
}

TEST_F(ObsTest, SpanGuardRecordsOnlyWhenEnabled) {
  const obs::FlightRecorder& ring = obs::FlightRecorder::spans();
  { SYNCON_SPAN("test/disabled"); }
  EXPECT_EQ(ring.recorded_total(), 0u);
  obs::set_enabled(true);
  { SYNCON_SPAN("test/enabled"); }
  obs::set_enabled(false);
  const auto records = ring.dump();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, obs::FlightKind::kSpan);
  EXPECT_STREQ(obs::span_name(records[0]), "test/enabled");
  EXPECT_GE(records[0].t_us, records[0].b);  // closed after it opened
  const auto stats = obs::aggregate_spans(ring);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "test/enabled");
  EXPECT_EQ(stats[0].count, 1u);
}

TEST_F(ObsTest, DisabledSpansAllocateNothingAndRecordNothing) {
  const obs::FlightRecorder& ring = obs::FlightRecorder::spans();
  const std::uint64_t records_before = ring.recorded_total();
  // Warm up any lazy state before measuring.
  { SYNCON_SPAN("test/warmup"); }
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    SYNCON_SPAN("test/hot");
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), allocs_before);
  EXPECT_EQ(ring.recorded_total(), records_before);
}

TEST_F(ObsTest, EnabledSpansAllocateNothingOnceTheRingExists) {
  const obs::FlightRecorder& ring = obs::FlightRecorder::spans();
  obs::set_enabled(true);
  // The first span builds the calling thread's slot id; the ring itself
  // was built by SetUp.
  { SYNCON_SPAN("test/warmup"); }
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    SYNCON_SPAN("test/hot");
  }
  const std::uint64_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);
  obs::set_enabled(false);
  EXPECT_EQ(allocs_after, allocs_before);
  EXPECT_EQ(ring.recorded_total(), 1001u);
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormedJson) {
  obs::FlightRecorder ring(16);
  const std::uint64_t start = obs::now_us();
  ring.record(obs::FlightKind::kSpan, 0,
              reinterpret_cast<std::uintptr_t>("relation/evaluate"), start);
  ring.record(obs::FlightKind::kSpan, 1,
              reinterpret_cast<std::uintptr_t>("batch/sweep"), 0);
  std::ostringstream oss;
  obs::write_chrome_trace(oss, ring);
  const std::string trace = oss.str();
  EXPECT_TRUE(JsonChecker(trace).valid()) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"relation/evaluate\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"batch/sweep\""), std::string::npos);
  // ts is the record's start word b, dur its end t_us minus b.
  const auto records = ring.dump();
  ASSERT_EQ(records.size(), 2u);
  for (const obs::FlightRecord& r : records) {
    const std::string event =
        "\"ts\": " + std::to_string(r.b) +
        ", \"dur\": " + std::to_string(r.t_us - r.b) +
        ", \"pid\": 0, \"tid\": " + std::to_string(r.process);
    EXPECT_NE(trace.find(event), std::string::npos) << event << "\n" << trace;
  }
}

// --- single-source health metrics (OnlineMonitor / DES / FaultyNetwork) ---

TEST_F(ObsTest, MonitorHealthReportAndRegistryAgree) {
  OnlineSystem system(2);
  OnlineMonitor monitor(2);
  monitor.begin("a");
  const WireMessage m1 = system.send(0);
  const WireMessage m2 = system.send(0);
  monitor.record("a", m2.source);
  // Deliver only the second report: its clock vouches for the first.
  monitor.observe(m2);
  monitor.observe(m2);  // duplicate
  EXPECT_TRUE(monitor.degraded());
  EXPECT_EQ(monitor.missing_reports().size(), 1u);

  monitor.publish_metrics();
  const obs::MetricsSnapshot snap = obs::MetricRegistry::global().snapshot();
  const auto health = monitor.health_metrics();
  ASSERT_FALSE(health.empty());
  for (const OnlineMonitor::HealthMetric& hm : health) {
    const auto* e = snap.find(hm.metric);
    ASSERT_NE(e, nullptr) << hm.metric;
    EXPECT_EQ(e->gauge_value, static_cast<std::int64_t>(hm.value))
        << hm.metric;
  }
  // The list is in turn what the getters report.
  const auto value_of = [&](std::string_view name) {
    for (const auto& hm : health) {
      if (hm.metric == name) return hm.value;
    }
    ADD_FAILURE() << "no health metric " << name;
    return std::uint64_t{0};
  };
  EXPECT_EQ(value_of("syncon_monitor_duplicate_reports"),
            monitor.duplicate_reports());
  EXPECT_EQ(value_of("syncon_monitor_known_lost_reports"),
            monitor.missing_reports().size());
  EXPECT_EQ(value_of("syncon_monitor_definite_fires"),
            monitor.definite_fires());
  EXPECT_EQ(value_of("syncon_monitor_pending_fires"),
            monitor.pending_fires());
  (void)m1;
}

TEST_F(ObsTest, DesFaultStatsPublishAsGauges) {
  class Chatter : public DesProcess {
   public:
    void on_start(DesContext& ctx) override {
      for (int i = 0; i < 40; ++i) ctx.send(1, 1, i, 10);
    }
  };
  std::vector<std::unique_ptr<DesProcess>> procs;
  procs.push_back(std::make_unique<Chatter>());
  procs.push_back(std::make_unique<DesProcess>());
  DesConfig cfg;
  cfg.loss_probability = 0.3;
  cfg.duplicate_probability = 0.3;
  cfg.seed = 11;
  DesEngine engine(std::move(procs), cfg);
  engine.run(1'000'000);
  engine.publish_metrics();
  const DesFaultStats& stats = engine.fault_stats();
  EXPECT_GT(stats.lost + stats.duplicates_scheduled, 0u);
  const obs::MetricsSnapshot snap = obs::MetricRegistry::global().snapshot();
  const auto gauge = [&](std::string_view name) {
    const auto* e = snap.find(name);
    EXPECT_NE(e, nullptr) << name;
    return e == nullptr ? std::int64_t{-1} : e->gauge_value;
  };
  EXPECT_EQ(gauge("syncon_des_lost_messages"),
            static_cast<std::int64_t>(stats.lost));
  EXPECT_EQ(gauge("syncon_des_duplicates_scheduled"),
            static_cast<std::int64_t>(stats.duplicates_scheduled));
  EXPECT_EQ(gauge("syncon_des_duplicates_suppressed"),
            static_cast<std::int64_t>(stats.duplicates_suppressed));
  EXPECT_EQ(gauge("syncon_des_reordered_messages"),
            static_cast<std::int64_t>(stats.reordered));
  EXPECT_EQ(gauge("syncon_des_crash_discarded"),
            static_cast<std::int64_t>(stats.crash_discarded));
  EXPECT_EQ(gauge("syncon_des_events_executed"),
            static_cast<std::int64_t>(engine.events_executed()));
}

TEST_F(ObsTest, FaultyNetworkPublishesPerLinkGauges) {
  FaultPlan plan;
  plan.link.drop_probability = 0.5;
  plan.seed = 5;
  FaultyNetwork net(2, plan);
  OnlineSystem system(2);
  for (int i = 0; i < 30; ++i) {
    net.push(0, 1, system.send(0), static_cast<TimePoint>(i + 1));
  }
  (void)net.pop_ready(1, 1'000'000);
  net.publish_metrics();
  const ChannelStats total = net.stats();
  EXPECT_GT(total.dropped, 0u);
  const obs::MetricsSnapshot snap = obs::MetricRegistry::global().snapshot();
  const auto* dropped = snap.find("syncon_link_dropped{from=\"0\",to=\"1\"}");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->gauge_value, static_cast<std::int64_t>(total.dropped));
  const auto* agg = snap.find("syncon_network_delivered");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->gauge_value, static_cast<std::int64_t>(total.delivered));
  // And the Prometheus exposition renders the labeled family legally.
  const std::string prom = obs::prometheus_to_string(snap);
  EXPECT_NE(prom.find("# TYPE syncon_link_dropped gauge"), std::string::npos);
  EXPECT_NE(prom.find("syncon_link_dropped{from=\"0\",to=\"1\"} " +
                      std::to_string(total.dropped)),
            std::string::npos);
}

// --- end-to-end: DES -> stamping -> evaluation -> delivery -> resync ------

class PipelinePinger : public DesProcess {
 public:
  void on_start(DesContext& ctx) override {
    const EventId e = ctx.send(1, 1, 0, 100);
    ctx.mark("ping", e);
  }
  void on_message(DesContext& ctx, const DesMessage& m) override {
    ctx.mark("pong-received", ctx.current_receive());
    if (m.value < 3) {
      const EventId e = ctx.send(1, 1, m.value + 1, 100);
      ctx.mark("ping", e);
    }
  }
};

class PipelinePonger : public DesProcess {
 public:
  void on_message(DesContext& ctx, const DesMessage& m) override {
    ctx.mark("pong", ctx.send(0, 2, m.value, 100));
  }
};

TEST_F(ObsTest, PipelineTraceCoversAllPhases) {
  obs::set_enabled(true);

  // 1. Simulate (des/run).
  std::vector<std::unique_ptr<DesProcess>> procs;
  procs.push_back(std::make_unique<PipelinePinger>());
  procs.push_back(std::make_unique<PipelinePonger>());
  DesEngine engine(std::move(procs), DesConfig{});
  engine.run(10'000'000);
  auto result = engine.finish();

  // 2. Stamp (model/stamp) and query one pair (relation/evaluate).
  const Timestamps ts(*result.execution);
  SyncMonitor offline(result.execution);
  ASSERT_GE(result.intervals.size(), 2u);
  const auto hx = offline.add_interval(std::move(result.intervals[0]));
  const auto hy = offline.add_interval(std::move(result.intervals[1]));
  (void)offline.relations_between(hx, hy);

  // 3. Online delivery (online/deliver) with a loss, then recovery
  //    (online/resync_serve + monitor/ingest).
  OnlineSystem system(2);
  OnlineMonitor monitor(2);
  monitor.begin("a");
  const WireMessage m1 = system.send(0);
  const WireMessage m2 = system.send(0);
  (void)system.deliver(1, m2);
  monitor.record("a", m1.source);
  monitor.record("a", m2.source);
  monitor.observe(m2);  // m1's report was lost: gap opens
  EXPECT_TRUE(monitor.missing_reports().size() == 1);
  const auto replies = system.serve(monitor.resync_request());
  ASSERT_EQ(replies.size(), 1u);
  monitor.observe(replies[0]);  // gap closes
  EXPECT_TRUE(monitor.missing_reports().empty());
  obs::set_enabled(false);

  std::ostringstream oss;
  obs::write_chrome_trace(oss, obs::FlightRecorder::spans());
  const std::string trace = oss.str();
  EXPECT_TRUE(JsonChecker(trace).valid());
  for (const char* span : {"des/run", "model/stamp", "relation/evaluate",
                           "online/deliver", "online/resync_serve",
                           "monitor/ingest"}) {
    EXPECT_NE(trace.find("\"name\": \"" + std::string(span) + "\""),
              std::string::npos)
        << "missing span " << span;
  }
  // The one query wrote one relation/evaluate span.
  for (const obs::SpanStats& stats :
       obs::aggregate_spans(obs::FlightRecorder::spans())) {
    if (stats.name == "relation/evaluate") {
      EXPECT_EQ(stats.count, 1u);
    }
  }
  // The recovered gap fed the gap-open-duration histogram.
  const obs::MetricsSnapshot snap = obs::MetricRegistry::global().snapshot();
  const auto* gap = snap.find("syncon_monitor_gap_open_reports");
  ASSERT_NE(gap, nullptr);
  EXPECT_GE(gap->histogram->count, 1u);
}

// --- exporter edge cases (DESIGN.md §3.13) -----------------------------------

TEST_F(ObsTest, SanitizeMetricNameHandlesEmptyAndLabelOnlyNames) {
  EXPECT_EQ(obs::sanitize_metric_name(""), "_");
  // A label-only name has an empty base; the base is still made legal.
  EXPECT_EQ(obs::sanitize_metric_name("{le=\"1\"}"), "_{le=\"1\"}");
  EXPECT_EQ(obs::sanitize_metric_name("***"), "___");
  EXPECT_EQ(obs::sanitize_metric_name("42{q=\"0.5\"}"), "_42{q=\"0.5\"}");
}

TEST_F(ObsTest, JsonEscapeControlAndNonAsciiBytes) {
  EXPECT_EQ(obs::json_escape("a\x01" "b"), "a\\u0001b");
  EXPECT_EQ(obs::json_escape("\x7f"), "\\u007f");
  EXPECT_EQ(obs::json_escape("tab\there\nline"), "tab\\there\\nline");
  // Non-UTF-8 garbage in a run label must still yield ASCII-only JSON.
  const std::string garbage("run\xff\xfe ok");
  const std::string escaped = obs::json_escape(garbage);
  EXPECT_EQ(escaped, "run\\u00ff\\u00fe ok");
  EXPECT_TRUE(JsonChecker("\"" + escaped + "\"").valid());
}

TEST_F(ObsTest, HistogramOverflowBucketQuantileStaysCoherent) {
  // Live histogram: every sample lands past the last bound; the quantile
  // interpolates toward the tracked max instead of being stuck at a bound.
  obs::Histogram& h = obs::MetricRegistry::global().histogram(
      "syncon_test_overflow_us", obs::HistogramSpec::linear(1.0, 1.0, 2));
  h.record(100.0);
  h.record(200.0);
  const obs::HistogramSnapshot live = h.snapshot();
  EXPECT_DOUBLE_EQ(live.quantile(1.0), 200.0);
  EXPECT_GE(live.quantile(0.25), 2.0);
  EXPECT_LE(live.quantile(0.25), 200.0);

  // Hand-assembled snapshot (merged from bucket counts alone, min/max never
  // tracked): the open-ended bucket anchors at its lower bound rather than
  // interpolating backwards toward a stale max below it.
  obs::HistogramSnapshot merged;
  merged.bounds = {1.0, 2.0};
  merged.counts = {0, 0, 4};
  merged.count = 4;
  merged.min = 0.0;
  merged.max = 0.0;
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(merged.quantile(1.0), 2.0);
}

// --- detection-latency waterfalls --------------------------------------------

TEST_F(ObsTest, WaterfallMonotoneStagesSumToTotal) {
  obs::Waterfall fall;
  fall.x = "A#1";
  fall.y = "B#1";
  fall.holds = true;
  fall.definite = true;
  fall.start_us = 100;
  fall.stages = {{"observe", 100, 5},
                 {"track", 105, 0},
                 {"gap_wait", 105, 7},
                 {"evaluate", 112, 2},
                 {"fire", 114, 1}};
  EXPECT_TRUE(fall.monotone());
  EXPECT_EQ(fall.total_us(), 15u);
  std::uint64_t sum = 0;
  for (const obs::StageSpan& s : fall.stages) sum += s.duration_us;
  EXPECT_EQ(sum, fall.total_us());

  obs::Waterfall gap = fall;
  gap.stages[2].start_us = 120;  // hole between track and gap_wait
  EXPECT_FALSE(gap.monotone());
  obs::Waterfall unanchored = fall;
  unanchored.start_us = 90;  // first stage no longer starts at start_us
  EXPECT_FALSE(unanchored.monotone());

  std::ostringstream text;
  const std::vector<obs::Waterfall> falls{fall};
  obs::write_waterfalls(text, falls);
  EXPECT_NE(text.str().find("observe"), std::string::npos);
  std::ostringstream json;
  obs::write_waterfalls_json(json, falls);
  EXPECT_TRUE(JsonChecker(json.str()).valid()) << json.str();
  EXPECT_NE(json.str().find("syncon-waterfalls-v1"), std::string::npos);
}

TEST_F(ObsTest, RecordStageLatencyFeedsHistogramFamily) {
  obs::set_enabled(true);
  obs::record_stage_latency("evaluate", 42);
  obs::record_stage_latency("resync_wait", 7);
  const obs::MetricsSnapshot snap = obs::MetricRegistry::global().snapshot();
  const auto* evaluate = snap.find("syncon_detect_latency_evaluate_us");
  ASSERT_NE(evaluate, nullptr);
  EXPECT_EQ(evaluate->histogram->count, 1u);
  ASSERT_NE(snap.find("syncon_detect_latency_resync_wait_us"), nullptr);
}

// --- scrape endpoint ---------------------------------------------------------

std::string scrape(obs::ScrapeServer& server, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string request =
      std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  EXPECT_TRUE(server.serve_once(2000));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof buffer)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(ObsTest, ScrapeServerServesMetricsTelemetryAndHealth) {
  obs::set_enabled(true);
  obs::MetricRegistry::global().counter("syncon_scrape_probe_total").add(3);
  obs::ScrapeServer::Options options;
  options.run_label = "obs_test";
  obs::ScrapeServer server(options);
  ASSERT_TRUE(server.ok());
  ASSERT_NE(server.port(), 0);

  const std::string health = scrape(server, "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = scrape(server, "/metrics");
  EXPECT_NE(metrics.find("syncon_scrape_probe_total 3"), std::string::npos);

  const std::string telemetry = scrape(server, "/telemetry.json");
  const std::size_t body = telemetry.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  EXPECT_TRUE(JsonChecker(telemetry.substr(body + 4)).valid());
  EXPECT_NE(telemetry.find("obs_test"), std::string::npos);

  EXPECT_NE(scrape(server, "/no-such-route").find("404"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 4u);
}

}  // namespace
}  // namespace syncon
