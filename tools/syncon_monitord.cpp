// syncon_monitord — the sharded multi-tenant monitoring daemon
// (DESIGN.md §3.15).
//
// Hosts N scripted tenant sessions behind the tenant wire codec, shards
// them across the process ThreadPool, and drives them with the service
// load generator: bounded ingress queues with retry-on-backpressure, an
// optional memory budget that each shard holds its share of by compacting
// its laggiest tenants first, and per-tenant verdict-identity checking
// against each tenant's standalone reference run. Metrics are exported on
// the standard scrape endpoint (GET /metrics, /healthz).
//
//   # 10k-tenant faulty soak, 8 shards, 512k-event budget, with scraping
//   syncon_monitord --tenants=10000 --shards=8 --memory-budget=524288
//       --report-drop=0.15 --report-dup=0.1 --report-reorder=0.2
//       --port=9465 --stats-json=service.json
//
// Exit status: 0 when every tenant's daemon-side Definite verdict log is
// bit-identical to its reference, 1 otherwise, 2 on a malformed or
// out-of-range option.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/serve.hpp"
#include "obs/telemetry.hpp"
#include "service/daemon.hpp"
#include "sim/service_load.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/thread_pool.hpp"

using namespace syncon;

namespace {

/// Peak resident set size in KiB (ru_maxrss is KiB on Linux).
long peak_rss_kib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("syncon_monitord",
                "sharded multi-tenant monitoring daemon: scripted tenant "
                "load through the wire codec with verdict-identity checks");
  cli.add_option("tenants", "1000", "total tenant sessions to run");
  cli.add_option("window", "64", "tenants in flight at once");
  cli.add_option("batch", "8", "frames submitted per tenant per round");
  cli.add_option("shards", "8", "session shards (tenant_id % shards)");
  cli.add_option("queue-capacity", "1024", "frames per shard ingress queue");
  cli.add_option("memory-budget", "0",
                 "live-log event budget (0 = unbounded), split evenly over "
                 "the shards; each shard compacts its laggiest tenants at "
                 "their watermark pins after every pump");
  cli.add_option("processes", "3", "processes per tenant ring");
  cli.add_option("cycles", "18", "tenant workload cycles");
  cli.add_option("action-every", "4", "open a tracked pair every N cycles");
  cli.add_option("recover-every", "8", "checkpoint + resync every N cycles");
  cli.add_option("report-drop", "0", "report-feed drop probability");
  cli.add_option("report-dup", "0", "report-feed duplicate probability");
  cli.add_option("report-reorder", "0", "report-feed reorder probability");
  cli.add_option("seed", "1", "master seed (per-tenant seeds derive from it)");
  cli.add_option("port", "0",
                 "serve /metrics on 127.0.0.1:port (0 = ephemeral)");
  cli.add_option("serve-every", "16",
                 "drain pending scrapes + publish gauges every N rounds");
  cli.add_option("stats-json", "",
                 "write run statistics (identity, p99 ingest latency, peak "
                 "RSS, reclaimed events, per-tenant series) as JSON here");
  cli.add_flag("keep-sessions",
               "retain finished sessions instead of releasing them (bounds "
               "checking only; large runs will hold every live log)");
  cli.add_flag("no-serve", "skip the scrape endpoint entirely");
  if (!cli.parse(argc, argv)) return 1;

  obs::set_enabled(true);

  service::DaemonOptions daemon_options;
  daemon_options.shards = cli.get_uint("shards");
  daemon_options.queue_capacity = cli.get_uint("queue-capacity");
  daemon_options.memory_budget_events = cli.get_uint("memory-budget");

  service::ServiceLoadConfig load;
  load.tenants = cli.get_uint("tenants");
  load.window = cli.get_uint("window");
  load.batch = cli.get_uint("batch");
  load.seed = cli.get_uint("seed");
  load.release_finished = !cli.get_flag("keep-sessions");
  load.workload.processes =
      cli.get_uint("processes", service::kMaxTenantProcesses);
  load.workload.cycles = cli.get_uint("cycles");
  load.workload.action_every = cli.get_uint("action-every");
  load.workload.recover_every = cli.get_uint("recover-every");
  load.workload.report_link.drop_probability = cli.get_double("report-drop");
  load.workload.report_link.duplicate_probability =
      cli.get_double("report-dup");
  load.workload.report_link.reorder_probability =
      cli.get_double("report-reorder");
  if (load.workload.report_link.drop_probability > 0 ||
      load.workload.report_link.reorder_probability > 0) {
    load.workload.report_link.min_delay = 1;
    load.workload.report_link.max_delay = 24;
  }

  ThreadPool& pool = ThreadPool::shared();
  service::MonitorDaemon daemon(daemon_options, pool);

  obs::ScrapeServer::Options server_options;
  server_options.port =
      static_cast<std::uint16_t>(cli.get_uint("port", 65535));
  server_options.run_label = "syncon_monitord";
  std::unique_ptr<obs::ScrapeServer> server;
  if (!cli.get_flag("no-serve")) {
    server = std::make_unique<obs::ScrapeServer>(server_options);
    if (server->ok()) {
      std::printf("serving on http://127.0.0.1:%u (/metrics /healthz)\n",
                  server->port());
    } else {
      std::fprintf(stderr, "warning: scrape endpoint unavailable\n");
      server.reset();
    }
  }

  const std::uint64_t serve_every =
      std::max<std::uint64_t>(1, cli.get_uint("serve-every"));
  load.on_round = [&](std::uint64_t round) {
    if (round % serve_every != 0) return;
    daemon.publish_metrics();
    if (server) server->serve_pending();
  };

  const service::ServiceLoadResult result =
      service::run_service_load(load, daemon);
  daemon.publish_metrics();
  if (server) server->serve_pending();

  const long rss_kib = peak_rss_kib();
  obs::MetricRegistry::global()
      .gauge("syncon_service_peak_rss_kib")
      .set(rss_kib);

  double p99_ingest_us = 0.0;
  const auto snapshot = obs::MetricRegistry::global().snapshot();
  if (const auto* entry = snapshot.find("syncon_service_ingest_latency_us");
      entry != nullptr && entry->histogram && entry->histogram->count > 0) {
    p99_ingest_us = entry->histogram->quantile(0.99);
  }
  // Labeled per-tenant series left in the registry (bounded by the daemon).
  const auto tenant_series = std::count_if(
      snapshot.entries.begin(), snapshot.entries.end(), [](const auto& e) {
        return e.name.find("{tenant=") != std::string::npos;
      });

  std::printf(
      "service: %llu tenants, %llu events, %llu frames, %llu rounds, "
      "%llu verdicts, %llu mismatches\n",
      static_cast<unsigned long long>(result.tenants_run),
      static_cast<unsigned long long>(result.total_events),
      static_cast<unsigned long long>(result.total_frames),
      static_cast<unsigned long long>(result.rounds),
      static_cast<unsigned long long>(result.verdicts_total),
      static_cast<unsigned long long>(result.identity_mismatches));
  std::printf(
      "daemon: %llu applied, %llu quarantined, %llu backpressure rejects, "
      "%zu live-log peak, %llu reclaimed (%llu compactions)\n",
      static_cast<unsigned long long>(result.daemon.frames_applied),
      static_cast<unsigned long long>(result.daemon.frames_quarantined),
      static_cast<unsigned long long>(result.daemon.rejected_submits),
      result.daemon.live_log_peak,
      static_cast<unsigned long long>(result.daemon.reclaimed_events),
      static_cast<unsigned long long>(result.daemon.compactions));
  std::printf("ingest p99: %.1f us, peak RSS: %ld KiB\n", p99_ingest_us,
              rss_kib);

  if (!cli.get("stats-json").empty()) {
    std::ofstream out(cli.get("stats-json"));
    out << "{\n"
        << "  \"tenants\": " << result.tenants_run << ",\n"
        << "  \"total_events\": " << result.total_events << ",\n"
        << "  \"total_frames\": " << result.total_frames << ",\n"
        << "  \"rounds\": " << result.rounds << ",\n"
        << "  \"verdicts\": " << result.verdicts_total << ",\n"
        << "  \"identity_mismatches\": " << result.identity_mismatches
        << ",\n"
        << "  \"frames_applied\": " << result.daemon.frames_applied << ",\n"
        << "  \"frames_quarantined\": " << result.daemon.frames_quarantined
        << ",\n"
        << "  \"backpressure_rejects\": " << result.daemon.rejected_submits
        << ",\n"
        << "  \"live_log_peak\": " << result.daemon.live_log_peak << ",\n"
        << "  \"reclaimed_events\": " << result.daemon.reclaimed_events
        << ",\n"
        << "  \"compactions\": " << result.daemon.compactions << ",\n"
        << "  \"tenant_series\": " << tenant_series << ",\n"
        << "  \"p99_ingest_us\": " << p99_ingest_us << ",\n"
        << "  \"peak_rss_kib\": " << rss_kib << "\n"
        << "}\n";
    std::printf("wrote stats JSON to %s\n", cli.get("stats-json").c_str());
  }

  if (!result.identity_ok) {
    std::fprintf(stderr, "IDENTITY FAILURE: %llu tenant(s) diverged\n",
                 static_cast<unsigned long long>(result.identity_mismatches));
    return 1;
  }
  return 0;
} catch (const ContractViolation& e) {
  // A malformed or out-of-range option: report it, never abort.
  std::fprintf(stderr, "syncon_monitord: %s\n", e.what());
  return 2;
}
