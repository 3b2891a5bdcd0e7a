// syncon_metricsd — the observability daemon harness (DESIGN.md §3.13).
//
// Drives a seeded (optionally faulty) soak run with full causal-observability
// capture — detection-latency waterfalls, the flight recorder, and (for
// uncompacted runs) the complete execution — while answering scrape requests
// on a localhost HTTP endpoint:
//
//   GET /metrics          Prometheus text exposition
//   GET /telemetry.json   syncon-telemetry-v1 JSON document
//   GET /flight           flight-recorder text dump
//   GET /flight.json      flight-recorder JSON dump
//   GET /healthz          liveness probe
//
// After the run it can export every artifact of the observability stack:
//
//   syncon_metricsd --cycles=2000 --report-drop=0.05 --port=9464
//       --causal-trace=trace.otlp.json --waterfalls=falls.txt
//       --flight-json=flight.json   (one command line)
//   # CI quarantine drill: poison report + automatic flight dump
//   syncon_metricsd --cycles=200 --inject-quarantine --flight-dump=dump.txt
//
// Exit status: 0 on success, 1 on a failed export or consistency check, 2
// on a malformed or out-of-range option.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "model/timestamps.hpp"
#include "obs/causal_trace.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/serve.hpp"
#include "obs/telemetry.hpp"
#include "online/online_monitor.hpp"
#include "sim/soak.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"

using namespace syncon;

int main(int argc, char** argv) try {
  CliParser cli("syncon_metricsd",
                "soak-driving observability daemon: scrape endpoint + "
                "causal-trace / waterfall / flight-recorder export");
  cli.add_option("port", "0", "listen port on 127.0.0.1 (0 = ephemeral)");
  cli.add_option("cycles", "2000", "soak main-loop cycles");
  cli.add_option("processes", "4", "ring size");
  cli.add_option("seed", "1", "fault + workload seed");
  cli.add_option("action-every", "8", "open a tracked pair every N cycles");
  cli.add_option("recover-every", "32", "checkpoint + resync every N cycles");
  cli.add_option("compact-every", "0",
                 "compact at the watermark every N cycles (0 = off; causal "
                 "trace export needs the uncompacted log)");
  cli.add_option("report-drop", "0", "report-feed drop probability");
  cli.add_option("report-dup", "0", "report-feed duplicate probability");
  cli.add_option("report-reorder", "0", "report-feed reorder probability");
  cli.add_option("serve-every", "16",
                 "drain pending scrape requests every N cycles");
  cli.add_option("serve-requests", "0",
                 "after the soak, keep serving until this many further "
                 "requests have been answered (0 = exit immediately)");
  cli.add_option("causal-trace", "",
                 "write the full causal span trace (events, messages, "
                 "verdicts, flight markers) as OTLP-style JSON here");
  cli.add_option("causal-chrome", "",
                 "write the causal span trace as Chrome trace-event JSON");
  cli.add_option("waterfalls", "",
                 "write the detection-latency waterfall report here "
                 "(JSON when the name ends in .json, text otherwise)");
  cli.add_option("telemetry-json", "",
                 "write the final metrics snapshot (stage-latency "
                 "histograms with p50/p95/p99) as telemetry JSON here");
  cli.add_option("flight-text", "", "write the flight dump as text here");
  cli.add_option("flight-json", "", "write the flight dump as JSON here");
  cli.add_option("flight-dump", "",
                 "automatic flight-dump path for quarantine / recovery / "
                 "contract-failure triggers");
  cli.add_flag("inject-quarantine",
               "after the soak, feed one malformed report to a monitor to "
               "trigger quarantine + automatic flight dump");
  if (!cli.parse(argc, argv)) return 1;

  obs::set_enabled(true);
  obs::set_flight_enabled(true);
  if (!cli.get("flight-dump").empty()) {
    obs::set_flight_dump_path(cli.get("flight-dump"));
  }

  SoakConfig config;
  TenantWorkload& workload = config.workload;
  workload.processes = cli.get_uint("processes");
  workload.cycles = cli.get_uint("cycles");
  workload.action_every = cli.get_uint("action-every");
  workload.recover_every = cli.get_uint("recover-every");
  workload.compact_every = cli.get_uint("compact-every");
  workload.resync_chunk = 256;
  workload.seed = cli.get_uint("seed");
  workload.report_link.drop_probability = cli.get_double("report-drop");
  workload.report_link.duplicate_probability = cli.get_double("report-dup");
  workload.report_link.reorder_probability = cli.get_double("report-reorder");
  config.capture_observability = true;

  obs::ScrapeServer::Options server_options;
  server_options.port =
      static_cast<std::uint16_t>(cli.get_uint("port", 65535));
  server_options.run_label = "syncon_metricsd";
  obs::ScrapeServer server(server_options);
  if (server.ok()) {
    std::printf("serving on http://127.0.0.1:%u "
                "(/metrics /telemetry.json /flight /flight.json /healthz)\n",
                server.port());
  } else {
    std::fprintf(stderr, "warning: scrape endpoint unavailable\n");
  }

  const std::uint64_t serve_every = std::max<std::uint64_t>(
      1, cli.get_uint("serve-every"));
  config.on_cycle = [&](std::uint64_t cycle) {
    if (server.ok() && cycle % serve_every == 0) server.serve_pending();
  };

  const SoakResult result = run_soak(config);
  obs::set_flight_enabled(true);  // run_soak restores the pre-run state

  std::printf(
      "soak: %llu events, %llu definite fires, %llu resync rounds, "
      "%zu waterfalls, %zu flight records\n",
      static_cast<unsigned long long>(result.executed_events),
      static_cast<unsigned long long>(result.definite_fires),
      static_cast<unsigned long long>(result.resync_rounds),
      result.waterfalls.size(), result.flight.size());

  int status = 0;

  // --- quarantine drill ------------------------------------------------------
  if (cli.get_flag("inject-quarantine")) {
    OnlineMonitor victim(workload.processes);
    // Own clock component must be index + 1 (the Fidge invariant); an
    // all-zero clock is the classic corrupt frame every layer must survive.
    WireMessage poison;
    poison.source = EventId{0, 7};
    poison.clock = VectorClock(workload.processes, 0);
    const bool accepted = victim.try_observe(poison);
    std::printf("inject-quarantine: report %s (quarantined %llu)\n",
                accepted ? "ACCEPTED (unexpected)" : "rejected",
                static_cast<unsigned long long>(victim.quarantined()));
    if (accepted) status = 1;
  }

  // --- artifact export -------------------------------------------------------
  if (!cli.get("causal-trace").empty() || !cli.get("causal-chrome").empty()) {
    if (!result.execution) {
      std::fprintf(stderr,
                   "causal trace export needs --compact-every=0 (the "
                   "compacted log cannot materialize its execution)\n");
      status = 1;
    } else {
      const Timestamps stamps(*result.execution);
      obs::CausalTrace trace =
          obs::build_causal_trace(*result.execution, stamps);
      obs::append_monitor_spans(trace, result.waterfalls);
      obs::append_flight_spans(trace, result.flight);
      std::string why;
      if (!obs::verify_causal_consistency(trace, *result.execution, stamps,
                                          &why)) {
        std::fprintf(stderr, "causal trace inconsistency: %s\n", why.c_str());
        status = 1;
      }
      std::printf("causal trace: %zu spans (%zu resync, %zu verdict)\n",
                  trace.spans.size(),
                  obs::count_spans_of_kind(trace, "resync"),
                  obs::count_spans_of_kind(trace, "verdict"));
      if (!cli.get("causal-trace").empty()) {
        std::ofstream out(cli.get("causal-trace"));
        obs::write_causal_otlp(out, trace);
        std::printf("wrote OTLP causal trace to %s\n",
                    cli.get("causal-trace").c_str());
      }
      if (!cli.get("causal-chrome").empty()) {
        std::ofstream out(cli.get("causal-chrome"));
        obs::write_causal_chrome_trace(out, trace);
        std::printf("wrote Chrome causal trace to %s\n",
                    cli.get("causal-chrome").c_str());
      }
    }
  }

  if (!cli.get("waterfalls").empty()) {
    const std::string path = cli.get("waterfalls");
    std::ofstream out(path);
    if (path.size() >= 5 && path.rfind(".json") == path.size() - 5) {
      obs::write_waterfalls_json(out, result.waterfalls);
    } else {
      obs::write_waterfalls(out, result.waterfalls);
    }
    std::printf("wrote %zu waterfalls to %s\n", result.waterfalls.size(),
                path.c_str());
  }
  if (!cli.get("telemetry-json").empty()) {
    std::ofstream out(cli.get("telemetry-json"));
    obs::write_json(out, obs::MetricRegistry::global().snapshot(),
                    "syncon_metricsd");
    std::printf("wrote telemetry JSON to %s\n",
                cli.get("telemetry-json").c_str());
  }
  if (!cli.get("flight-text").empty()) {
    std::ofstream out(cli.get("flight-text"));
    obs::write_flight_text(out, obs::FlightRecorder::global().dump());
    std::printf("wrote flight text to %s\n", cli.get("flight-text").c_str());
  }
  if (!cli.get("flight-json").empty()) {
    std::ofstream out(cli.get("flight-json"));
    obs::write_flight_json(out, obs::FlightRecorder::global().dump());
    std::printf("wrote flight JSON to %s\n", cli.get("flight-json").c_str());
  }

  // --- post-run serving ------------------------------------------------------
  const std::uint64_t keep_serving = cli.get_uint("serve-requests");
  if (server.ok() && keep_serving > 0) {
    std::printf("serving %llu more request(s)...\n",
                static_cast<unsigned long long>(keep_serving));
    const std::uint64_t until = server.requests_served() + keep_serving;
    while (server.requests_served() < until) {
      if (!server.serve_once(1000)) continue;
    }
  }

  return status;
} catch (const ContractViolation& e) {
  // A malformed or out-of-range option: report it, never abort.
  std::fprintf(stderr, "syncon_metricsd: %s\n", e.what());
  return 2;
}
