// Offline trace analysis tool: generate (or load) a trace and an interval
// set, then answer synchronization queries from the command line — the
// workflow of the paper's Problem 4.
//
// Examples:
//   # generate a trace + windowed intervals, list all fully-ordered pairs
//   ./trace_analysis --generate --processes=6 --events=30 --find="R1(U,L)"
//   # save them for later analysis
//   ./trace_analysis --generate --save-trace=t.trace --save-intervals=i.txt
//   # reload and query a specific pair (one command line)
//   ./trace_analysis --trace=t.trace --intervals=i.txt --x=W0 --y=W2
//       --condition="R1(U,L) & !R3'"
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "cuts/watermark.hpp"
#include "monitor/causal_trace.hpp"
#include "monitor/monitor.hpp"
#include "monitor/report.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "relations/interaction_types.hpp"
#include "monitor/trace_io.hpp"
#include "online/online_monitor.hpp"
#include "online/online_system.hpp"
#include "sim/interval_picker.hpp"
#include "sim/workload.hpp"
#include "store/durable.hpp"
#include "store/storage.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace syncon;

namespace {

/// Drives the execution through a DurableSystem so every event is journaled
/// into `storage` (DESIGN.md §3.12); with compact_every > 0 the log is also
/// compacted at the retention watermark, exercising snapshot + WAL pruning.
void drive_durable(const Execution& exec, DurableSystem& sys,
                   std::size_t compact_every) {
  std::unordered_map<EventId, bool> is_source;
  for (const Message& m : exec.messages()) is_source[m.source] = true;
  std::size_t steps = 0;
  for (const EventId& e : exec.topological_order()) {
    if (e.index <= sys.system().executed(e.process)) continue;  // recovered
    const auto incoming = exec.incoming(e);
    if (!incoming.empty()) {
      std::vector<WireMessage> msgs;
      msgs.reserve(incoming.size());
      for (const EventId& src : incoming) {
        msgs.push_back(sys.system().wire_of(src));
      }
      sys.deliver_all(e.process, msgs);
    } else if (is_source.count(e)) {
      sys.send(e.process);
    } else {
      sys.local(e.process);
    }
    if (compact_every > 0 && ++steps % compact_every == 0) {
      sys.compact(sys.system().retention_watermark());
    }
  }
  sys.sync();
}

/// Compares the recovered system against a clean in-memory replay of the
/// same trace; returns the number of divergent processes/events.
std::size_t diff_against_replay(const Execution& exec,
                                const OnlineSystem& recovered) {
  const OnlineSystem oracle = replay(exec);
  std::size_t mismatches = 0;
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    if (recovered.executed(p) != oracle.executed(p) ||
        recovered.current_clock(p) != oracle.current_clock(p)) {
      ++mismatches;
      continue;
    }
    for (EventIndex i = recovered.reclaimed_before(p) + 1;
         i <= recovered.executed(p); ++i) {
      const EventId e{p, i};
      if (recovered.clock_of(e) != oracle.clock_of(e) ||
          recovered.time_of(e) != oracle.time_of(e)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

int run(int argc, char** argv) {
  CliParser cli("trace_analysis",
                "query causality relations on recorded distributed traces");
  cli.add_flag("generate", "generate a synthetic trace instead of loading");
  cli.add_option("processes", "6", "processes (with --generate)");
  cli.add_option("events", "30", "events per process (with --generate)");
  cli.add_option("topology", "random",
                 "random|ring|client-server|broadcast|phases");
  cli.add_option("seed", "1", "generation seed");
  cli.add_option("window", "8", "interval window width (with --generate)");
  cli.add_option("trace", "", "trace file to load");
  cli.add_option("intervals", "", "interval file to load");
  cli.add_option("save-trace", "", "write the trace to this file");
  cli.add_option("save-intervals", "", "write the intervals to this file");
  cli.add_option("x", "", "label of X for a single query");
  cli.add_option("y", "", "label of Y for a single query");
  cli.add_option("condition", "R1(U,L)", "synchronization condition");
  cli.add_option("find", "", "list all ordered pairs satisfying condition");
  cli.add_flag("matrix", "print the interaction-type matrix of all intervals");
  cli.add_option("online-compact", "0",
                 "replay the trace through the online stack, compacting the "
                 "log at the watermark every N events (0 = off)");
  cli.add_option("wal-record", "",
                 "journal the trace through a crash-recoverable "
                 "DurableSystem into a WAL + snapshots in this directory");
  cli.add_option("wal-replay", "",
                 "recover a DurableSystem from the WAL directory and verify "
                 "it against a clean replay of the loaded trace");
  cli.add_option("wal-compact", "0",
                 "with --wal-record: compact at the watermark every N "
                 "events, pruning covered WAL segments (0 = off)");
  cli.add_option("dot", "", "write a Graphviz rendering to this file");
  cli.add_flag("report", "print the full analysis report");
  cli.add_option("chrome-trace", "",
                 "enable telemetry; write the span trace here as Chrome "
                 "trace-event JSON (open in Perfetto / chrome://tracing)");
  cli.add_option("metrics", "",
                 "enable telemetry; write Prometheus text metrics here");
  cli.add_option("causal-trace", "",
                 "map the execution into a causal span trace (process / "
                 "event / message / interval spans with happens-before "
                 "follows-from links), property-check it against the clock "
                 "order, and write OTLP-style JSON here");
  cli.add_option("causal-chrome", "",
                 "also write the causal span trace as Chrome trace-event "
                 "JSON (happens-before rendered as flow arrows)");
  cli.add_option("flight", "",
                 "enable the flight recorder for the run and write its "
                 "text dump here (WAL / compaction / recovery records)");
  if (!cli.parse(argc, argv)) return 1;

  const bool telemetry =
      !cli.get("chrome-trace").empty() || !cli.get("metrics").empty();
  if (telemetry) obs::set_enabled(true);
  const bool flight_dump = !cli.get("flight").empty();
  if (flight_dump) obs::set_flight_enabled(true);

  // --- obtain the execution -------------------------------------------------
  std::shared_ptr<const Execution> exec;
  std::vector<NonatomicEvent> intervals;
  if (cli.get_flag("generate")) {
    WorkloadConfig cfg;
    cfg.process_count = cli.get_uint("processes");
    cfg.events_per_process = cli.get_uint("events");
    cfg.seed = cli.get_uint("seed");
    const std::string topo = cli.get("topology");
    if (topo == "ring") cfg.topology = Topology::Ring;
    else if (topo == "client-server") cfg.topology = Topology::ClientServer;
    else if (topo == "broadcast") cfg.topology = Topology::Broadcast;
    else if (topo == "phases") cfg.topology = Topology::Phases;
    else cfg.topology = Topology::Random;
    exec = std::make_shared<const Execution>(generate_execution(cfg));
    intervals = windowed_intervals(*exec, cli.get_uint("window"));
  } else if (!cli.get("trace").empty()) {
    std::ifstream in(cli.get("trace"));
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", cli.get("trace").c_str());
      return 1;
    }
    exec = std::make_shared<const Execution>(read_trace(in));
    if (!cli.get("intervals").empty()) {
      std::ifstream iv(cli.get("intervals"));
      if (!iv) {
        std::fprintf(stderr, "cannot open %s\n",
                     cli.get("intervals").c_str());
        return 1;
      }
      intervals = read_intervals(iv, *exec);
    } else {
      intervals = windowed_intervals(*exec, cli.get_uint("window"));
    }
  } else {
    std::fprintf(stderr, "need --generate or --trace=<file>\n");
    return 1;
  }

  std::printf("trace: %zu processes, %zu events, %zu messages; %zu intervals\n",
              exec->process_count(), exec->total_real_count(),
              exec->messages().size(), intervals.size());

  if (!cli.get("save-trace").empty()) {
    std::ofstream out(cli.get("save-trace"));
    write_trace(out, *exec);
    std::printf("wrote trace to %s\n", cli.get("save-trace").c_str());
  }
  if (!cli.get("save-intervals").empty()) {
    std::ofstream out(cli.get("save-intervals"));
    write_intervals(out, intervals);
    std::printf("wrote intervals to %s\n",
                cli.get("save-intervals").c_str());
  }

  if (!cli.get("dot").empty()) {
    std::ofstream out(cli.get("dot"));
    write_dot(out, *exec, intervals);
    std::printf("wrote Graphviz rendering to %s\n", cli.get("dot").c_str());
  }

  // --- bounded-memory online replay (DESIGN.md §3.10) -----------------------
  if (const std::size_t compact_every = cli.get_uint("online-compact");
      compact_every > 0) {
    // Replay the trace through the online stack with a feed-only monitor as
    // the retention consumer: every event report is observed, so the
    // monitor's watermark pin advances with the replay and the log can be
    // compacted behind it — the archival trace stays bounded in memory no
    // matter how long it is.
    OnlineSystem online(exec->process_count());
    OnlineMonitor feed(exec->process_count());
    std::unordered_map<EventId, bool> is_source;
    for (const Message& m : exec->messages()) is_source[m.source] = true;
    std::unordered_map<EventId, WireMessage> wires;
    std::size_t steps = 0, compactions = 0, live_peak = 0;
    for (const EventId& e : exec->topological_order()) {
      const auto incoming = exec->incoming(e);
      WireMessage report;
      if (!incoming.empty()) {
        std::vector<WireMessage> msgs;
        msgs.reserve(incoming.size());
        for (const EventId& src : incoming) msgs.push_back(wires.at(src));
        report = online.wire_of(online.deliver_all(e.process, msgs));
      } else if (is_source.count(e)) {
        report = online.send(e.process);
      } else {
        report = online.wire_of(online.local(e.process));
      }
      if (is_source.count(e)) wires.emplace(e, report);
      feed.observe(report);
      live_peak = std::max(live_peak, online.live_log_events());
      if (++steps % compact_every == 0) {
        const VectorClock pins[] = {feed.watermark_pin()};
        if (online.compact(low_watermark(pins)) > 0) ++compactions;
      }
    }
    std::printf(
        "\nonline replay with compaction every %zu events:\n"
        "  events %zu, compactions %zu, reclaimed %llu,\n"
        "  live log peak %zu, final %zu, watermark lag %llu\n",
        compact_every, steps, compactions,
        static_cast<unsigned long long>(online.reclaimed_events()), live_peak,
        online.live_log_events(),
        static_cast<unsigned long long>(
            watermark_lag(online.checkpoint().cut, online.snapshot())));
  }

  // --- durable journaling + crash recovery (DESIGN.md §3.12) ----------------
  if (!cli.get("wal-record").empty()) {
    FileStorage storage(cli.get("wal-record"));
    DurableSystem durable(exec->process_count(), storage);
    drive_durable(*exec, durable, cli.get_uint("wal-compact"));
    const Store& store = durable.store();
    std::printf(
        "\nwal-record -> %s:\n"
        "  records %llu (%llu WAL bytes, %llu fsyncs),\n"
        "  segments live %zu / pruned %llu, snapshots %llu\n",
        storage.directory().c_str(),
        static_cast<unsigned long long>(store.records_appended()),
        static_cast<unsigned long long>(store.wal_bytes_appended()),
        static_cast<unsigned long long>(store.syncs()), store.live_segments(),
        static_cast<unsigned long long>(store.segments_pruned()),
        static_cast<unsigned long long>(store.snapshots_written()));
  }

  if (!cli.get("wal-replay").empty()) {
    FileStorage storage(cli.get("wal-replay"));
    DurableSystem durable(exec->process_count(), storage);
    const RecoveryStats& stats = durable.recovery();
    const Store::RecoveryInfo& scan = durable.store().recovery();
    std::printf(
        "\nwal-replay <- %s:\n"
        "  recovered %s (snapshot %s, %zu discarded), records %zu,\n"
        "  replayed %zu / skipped %zu, truncated %s (%zu bytes, %zu "
        "segments dropped), scan %llu µs\n",
        storage.directory().c_str(), stats.recovered ? "yes" : "no",
        scan.snapshot.has_value() ? "found" : "none",
        scan.snapshots_discarded, scan.records, stats.events_replayed,
        stats.events_skipped, scan.truncated ? "yes" : "no",
        scan.truncated_bytes, scan.dropped_segments,
        static_cast<unsigned long long>(stats.recovery_micros));
    const std::size_t mismatches = diff_against_replay(*exec, durable.system());
    std::printf("  identity vs clean replay of this trace: %s\n",
                mismatches == 0
                    ? "bit-identical"
                    : (std::to_string(mismatches) + " mismatches").c_str());
  }

  SyncMonitor monitor(exec);
  // Scenario traces evaluate in parallel: all-pairs scans shard across the
  // shared pool with identical results and costs to a serial run.
  monitor.use_thread_pool(&ThreadPool::shared());
  for (const NonatomicEvent& iv : intervals) monitor.add_interval(iv);

  // --- causal trace export (DESIGN.md §3.13) --------------------------------
  if (!cli.get("causal-trace").empty() || !cli.get("causal-chrome").empty()) {
    obs::CausalTrace trace =
        obs::build_causal_trace(*exec, monitor.timestamps());
    obs::append_interval_spans(trace, *exec, intervals);
    std::string why;
    const bool consistent = obs::verify_causal_consistency(
        trace, *exec, monitor.timestamps(), &why);
    std::printf("\ncausal trace: %zu spans; happens-before consistency: %s\n",
                trace.spans.size(), consistent ? "verified" : "FAILED");
    if (!consistent) {
      std::fprintf(stderr, "causal trace inconsistency: %s\n", why.c_str());
      return 1;
    }
    if (!cli.get("causal-trace").empty()) {
      std::ofstream out(cli.get("causal-trace"));
      obs::write_causal_otlp(out, trace);
      std::printf("wrote OTLP-style causal trace to %s\n",
                  cli.get("causal-trace").c_str());
    }
    if (!cli.get("causal-chrome").empty()) {
      std::ofstream out(cli.get("causal-chrome"));
      obs::write_causal_chrome_trace(out, trace);
      std::printf("wrote Chrome causal trace to %s (open in Perfetto)\n",
                  cli.get("causal-chrome").c_str());
    }
  }

  // --- queries ---------------------------------------------------------------
  if (!cli.get("x").empty() && !cli.get("y").empty()) {
    const std::string cond_text = cli.get("condition");
    const SyncCondition cond = SyncCondition::parse(cond_text);
    const bool holds =
        monitor.check(cond, monitor.handle(cli.get("x")),
                      monitor.handle(cli.get("y")));
    std::printf("\n%s (X=%s, Y=%s) : %s\n", cond.to_string().c_str(),
                cli.get("x").c_str(), cli.get("y").c_str(),
                holds ? "HOLDS" : "does not hold");
    // Also report everything that holds (Problem 4 ii).
    std::printf("all relations holding for this pair:\n ");
    for (const RelationId& id : monitor.relations_between(
             monitor.handle(cli.get("x")), monitor.handle(cli.get("y")))) {
      std::printf(" %s", to_string(id).c_str());
    }
    std::printf("\n");
  }

  if (!cli.get("find").empty()) {
    const SyncCondition cond = SyncCondition::parse(cli.get("find"));
    const auto pairs = monitor.find_pairs(cond);
    std::printf("\npairs satisfying %s:\n", cond.to_string().c_str());
    TextTable table({"X", "Y"});
    for (const auto& [hx, hy] : pairs) {
      table.new_row()
          .add_cell(monitor.interval(hx).label())
          .add_cell(monitor.interval(hy).label());
    }
    std::printf("%s", table.to_string().c_str());
    std::printf("%zu of %zu ordered pairs\n", pairs.size(),
                monitor.interval_count() * (monitor.interval_count() - 1));
  }

  if (cli.get_flag("matrix")) {
    const std::size_t n = monitor.interval_count();
    std::vector<std::string> headers{"X \\ Y"};
    for (std::size_t i = 0; i < n; ++i) {
      headers.push_back(monitor.interval(monitor.handle_at(i)).label());
    }
    TextTable matrix(headers);
    for (std::size_t x = 0; x < n; ++x) {
      const auto hx = monitor.handle_at(x);
      matrix.new_row().add_cell(monitor.interval(hx).label());
      const EventCuts xc(monitor.timestamps(), monitor.interval(hx));
      for (std::size_t y = 0; y < n; ++y) {
        if (x == y) {
          matrix.add_cell(std::string("·"));
          continue;
        }
        const EventCuts yc(monitor.timestamps(),
                           monitor.interval(monitor.handle_at(y)));
        QueryCost counter;
        matrix.add_cell(std::string(
            to_string(classify(relation_profile(xc, yc, counter)))));
      }
    }
    std::printf("\ninteraction-type matrix:\n%s", matrix.to_string().c_str());
  }

  if (cli.get_flag("report")) {
    const SyncCondition headline = SyncCondition::parse(cli.get("condition"));
    ReportOptions report_options;
    report_options.headline = &headline;
    std::printf("\n%s", report_to_string(monitor, report_options).c_str());
  }

  const QueryCost spent = monitor.evaluator().accumulated_cost();
  std::printf("\ncost: %llu integer comparisons, %llu causality checks\n",
              static_cast<unsigned long long>(spent.integer_comparisons),
              static_cast<unsigned long long>(spent.causality_checks));

  if (telemetry) {
    obs::set_enabled(false);
    std::printf("\nspan summary:\n");
    std::ostringstream spans;
    obs::write_span_summary(spans, obs::FlightRecorder::spans());
    std::printf("%s", spans.str().c_str());
    if (!cli.get("chrome-trace").empty()) {
      std::ofstream out(cli.get("chrome-trace"));
      obs::write_chrome_trace(out, obs::FlightRecorder::spans());
      std::printf("wrote Chrome trace to %s (open in Perfetto)\n",
                  cli.get("chrome-trace").c_str());
    }
    if (!cli.get("metrics").empty()) {
      std::ofstream out(cli.get("metrics"));
      obs::write_prometheus(out, obs::MetricRegistry::global().snapshot());
      std::printf("wrote Prometheus metrics to %s\n",
                  cli.get("metrics").c_str());
    }
  }

  if (flight_dump) {
    obs::set_flight_enabled(false);
    std::ofstream out(cli.get("flight"));
    const std::vector<obs::FlightRecord> records =
        obs::FlightRecorder::global().dump();
    obs::write_flight_text(out, records);
    std::printf("wrote flight-recorder dump (%zu records) to %s\n",
                records.size(), cli.get("flight").c_str());
  }
  return 0;
}

}  // namespace

// Bad input — a malformed --condition or --find, an unknown --x/--y label, a
// malformed trace or interval file — is reported with exit status 1.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_analysis: %s\n", e.what());
    return 1;
  }
}
