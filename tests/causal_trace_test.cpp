// Causal trace export (DESIGN.md §3.13): the span tree must be a faithful
// rendering of the happens-before order — reachability over parent +
// follows-from edges coincides bit for bit with the strict vector-clock
// order, on clean generated workloads and on faulty soak runs alike.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "model/timestamps.hpp"
#include "monitor/causal_trace.hpp"
#include "sim/interval_picker.hpp"
#include "sim/soak.hpp"
#include "sim/workload.hpp"

namespace syncon {
namespace {

Execution make_exec(std::size_t procs, std::size_t events, Topology topo,
                    std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.process_count = procs;
  cfg.events_per_process = events;
  cfg.topology = topo;
  cfg.seed = seed;
  return generate_execution(cfg);
}

/// Enough JSON validation for the exporters: every quote/brace/bracket is
/// balanced outside strings and escapes are legal.
bool balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(CausalTraceTest, SpanReachabilityMatchesHappensBeforeAcrossTopologies) {
  for (const Topology topo : {Topology::Random, Topology::Ring,
                              Topology::ClientServer, Topology::Broadcast,
                              Topology::Phases}) {
    for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
      const Execution exec = make_exec(5, 14, topo, seed);
      const Timestamps stamps(exec);
      const obs::CausalTrace trace = obs::build_causal_trace(exec, stamps);
      std::string why;
      EXPECT_TRUE(obs::verify_causal_consistency(trace, exec, stamps, &why))
          << "topology " << static_cast<int>(topo) << " seed " << seed
          << ": " << why;
    }
  }
}

TEST(CausalTraceTest, BuildIsDeterministic) {
  const Execution exec = make_exec(4, 10, Topology::Random, 5);
  const Timestamps stamps(exec);
  const obs::CausalTrace a = obs::build_causal_trace(exec, stamps);
  const obs::CausalTrace b = obs::build_causal_trace(exec, stamps);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  EXPECT_EQ(a.trace_id, b.trace_id);
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].id, b.spans[i].id);
    EXPECT_EQ(a.spans[i].follows_from, b.spans[i].follows_from);
  }
}

TEST(CausalTraceTest, SpanShapeAndIds) {
  const Execution exec = make_exec(3, 8, Topology::Ring, 2);
  const Timestamps stamps(exec);
  const obs::CausalTrace trace = obs::build_causal_trace(exec, stamps);

  EXPECT_EQ(obs::count_spans_of_kind(trace, "process"), 3u);
  EXPECT_EQ(obs::count_spans_of_kind(trace, "event"),
            exec.total_real_count());
  EXPECT_EQ(obs::count_spans_of_kind(trace, "message"),
            exec.messages().size());

  // Every event span hangs off its process lane's root span.
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    ASSERT_NE(trace.find(obs::process_span_id(p)), nullptr);
  }
  const EventId first{0, 1};
  const obs::CausalSpan* span = trace.find(obs::event_span_id(first));
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->parent, obs::process_span_id(0));
  EXPECT_EQ(span->process, 0u);

  // Message spans are children of their send event.
  for (const Message& m : exec.messages()) {
    const obs::CausalSpan* msg = trace.find(obs::message_span_id(m.source));
    ASSERT_NE(msg, nullptr);
    EXPECT_EQ(msg->parent, obs::event_span_id(m.source));
    EXPECT_GE(msg->end_us, msg->start_us);
  }
}

TEST(CausalTraceTest, TamperedTracesFailVerification) {
  const Execution exec = make_exec(4, 8, Topology::Random, 11);
  const Timestamps stamps(exec);

  // Dropping a causal link breaks u ≺ v ⟹ reachable.
  obs::CausalTrace missing = obs::build_causal_trace(exec, stamps);
  bool dropped = false;
  for (obs::CausalSpan& span : missing.spans) {
    if (span.kind == "event" && !span.follows_from.empty()) {
      span.follows_from.clear();
      dropped = true;
      break;
    }
  }
  ASSERT_TRUE(dropped);
  std::string why;
  EXPECT_FALSE(obs::verify_causal_consistency(missing, exec, stamps, &why));
  EXPECT_FALSE(why.empty());

  // Linking two concurrent events breaks reachable ⟹ u ≺ v.
  obs::CausalTrace bogus = obs::build_causal_trace(exec, stamps);
  bool added = false;
  const auto order = exec.topological_order();
  for (std::size_t j = 1; j < order.size() && !added; ++j) {
    for (std::size_t i = 0; i < j && !added; ++i) {
      if (!stamps.lt(order[i], order[j])) {
        for (obs::CausalSpan& span : bogus.spans) {
          if (span.id == obs::event_span_id(order[j])) {
            span.follows_from.push_back(obs::event_span_id(order[i]));
            added = true;
            break;
          }
        }
      }
    }
  }
  ASSERT_TRUE(added);
  EXPECT_FALSE(obs::verify_causal_consistency(bogus, exec, stamps));
}

TEST(CausalTraceTest, IntervalSpansCoverComponentEvents) {
  const Execution exec = make_exec(4, 12, Topology::Random, 3);
  const Timestamps stamps(exec);
  const std::vector<NonatomicEvent> intervals = windowed_intervals(exec, 6);
  obs::CausalTrace trace = obs::build_causal_trace(exec, stamps);
  const std::size_t before = trace.spans.size();
  obs::append_interval_spans(trace, exec, intervals);
  EXPECT_EQ(trace.spans.size() - before, intervals.size());
  EXPECT_EQ(obs::count_spans_of_kind(trace, "interval"), intervals.size());
  // Interval spans only add structure on top of the event layer; the
  // property must keep holding.
  EXPECT_TRUE(obs::verify_causal_consistency(trace, exec, stamps));
}

TEST(CausalTraceTest, FaultySoakRunExportsResyncAndVerdictSpans) {
  SoakConfig config;
  TenantWorkload& workload = config.workload;
  workload.processes = 4;
  workload.cycles = 400;
  workload.action_every = 8;
  workload.recover_every = 32;
  workload.resync_chunk = 256;
  workload.compact_every = 0;  // keep the execution materializable
  workload.report_link.drop_probability = 0.10;
  workload.report_link.duplicate_probability = 0.05;
  workload.seed = 97;
  config.capture_observability = true;
  const SoakResult result = run_soak(config);
  ASSERT_TRUE(result.execution != nullptr);
  ASSERT_GT(result.resync_rounds, 0u);
  ASSERT_FALSE(result.waterfalls.empty());

  const Timestamps stamps(*result.execution);
  obs::CausalTrace trace = obs::build_causal_trace(*result.execution, stamps);
  obs::append_monitor_spans(trace, result.waterfalls);
  obs::append_flight_spans(trace, result.flight);

  std::string why;
  EXPECT_TRUE(
      obs::verify_causal_consistency(trace, *result.execution, stamps, &why))
      << why;
  // The injected report faults forced resyncs; they must be visible.
  EXPECT_GT(obs::count_spans_of_kind(trace, "resync"), 0u);
  EXPECT_EQ(obs::count_spans_of_kind(trace, "verdict"),
            result.waterfalls.size());
  EXPECT_GT(obs::count_spans_of_kind(trace, "stage"), 0u);

  for (const obs::Waterfall& fall : result.waterfalls) {
    EXPECT_TRUE(fall.monotone());
  }
}

TEST(CausalTraceTest, ExportersEmitWellFormedJson) {
  const Execution exec = make_exec(3, 6, Topology::ClientServer, 9);
  const Timestamps stamps(exec);
  const obs::CausalTrace trace = obs::build_causal_trace(exec, stamps);

  std::ostringstream chrome;
  obs::write_causal_chrome_trace(chrome, trace);
  EXPECT_TRUE(balanced_json(chrome.str()));
  EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);

  std::ostringstream otlp;
  obs::write_causal_otlp(otlp, trace);
  const std::string doc = otlp.str();
  EXPECT_TRUE(balanced_json(doc));
  EXPECT_NE(doc.find("\"resourceSpans\""), std::string::npos);
  EXPECT_NE(doc.find("\"scopeSpans\""), std::string::npos);
  EXPECT_NE(doc.find(trace.trace_id), std::string::npos);
}

}  // namespace
}  // namespace syncon
