// E12 (extension) — long-running soak for the retention subsystem
// (DESIGN.md §3.10). Two phases:
//
//   plateau   a ring under app + report faults, millions of events, the
//             session's replica compacted at its monitor's pin (and the
//             application log at its oldest unconsumed send) on a fixed
//             cadence: the replica's live log must plateau instead of
//             growing with the event count, and a late-joining monitor
//             must converge across the watermark from the checkpoint.
//   identity  a deterministic application under report faults: the
//             Definite-firing sequence of the compacted faulty run must be
//             bit-identical to the clean, uncompacted run.
//
// Scale dials (for CI smoke vs full soak): SYNCON_SOAK_CYCLES,
// SYNCON_SOAK_PROCS, SYNCON_SOAK_SEED. scripts/ci_soak_smoke.sh runs a
// short configuration and asserts on the syncon_longrun_* gauges this
// binary publishes into the telemetry JSON (SYNCON_BENCH_JSON).
//
// Observability hooks (DESIGN.md §3.13): SYNCON_METRICS_PORT serves live
// /metrics + /flight scrapes on 127.0.0.1 during the plateau phase;
// SYNCON_CAUSAL_TRACE captures the identity phase's clean run with full
// observability and writes its causal span trace as OTLP-style JSON.
//
// Service phase (DESIGN.md §3.15, off by default): SYNCON_TENANTS=N runs N
// scripted faulty tenants through a sharded MonitorDaemon under a binding
// memory budget and folds the per-tenant verdict-identity result into the
// exit status (SYNCON_SERVICE_SHARDS / SYNCON_SERVICE_BUDGET to dial).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench_common.hpp"
#include "model/timestamps.hpp"
#include "obs/causal_trace.hpp"
#include "obs/serve.hpp"
#include "service/daemon.hpp"
#include "service/load.hpp"
#include "sim/soak.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 10);
}

SoakConfig plateau_config() {
  SoakConfig cfg;
  TenantWorkload& w = cfg.workload;
  w.processes = static_cast<std::size_t>(env_u64("SYNCON_SOAK_PROCS", 8));
  // ~16.5 events/cycle at 8 processes -> the default crosses 1M events.
  w.cycles = env_u64("SYNCON_SOAK_CYCLES", 62000);
  w.seed = env_u64("SYNCON_SOAK_SEED", 20260805);
  w.action_every = 8;
  w.recover_every = 32;
  w.compact_every = 64;
  w.resync_chunk = 512;
  LinkFaultConfig& app = w.app_link.emplace();
  app.drop_probability = 0.02;
  app.duplicate_probability = 0.01;
  app.reorder_probability = 0.05;
  app.min_delay = 1;
  app.max_delay = 24;
  w.report_link.drop_probability = 0.05;
  w.report_link.duplicate_probability = 0.02;
  w.report_link.reorder_probability = 0.05;
  w.report_link.min_delay = 1;
  w.report_link.max_delay = 40;
  return cfg;
}

/// Bounded-memory check on the post-compaction samples: the steady-state
/// half must not exceed the warm-up half by more than slack — a live log
/// that tracks the event count would roughly double instead.
bool plateaus(const std::vector<std::size_t>& samples) {
  if (samples.size() < 4) return false;
  std::size_t first_max = 0, second_max = 0;
  const std::size_t half = samples.size() / 2;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto& side = i < half ? first_max : second_max;
    side = std::max(side, samples[i]);
  }
  return second_max <= first_max + first_max / 10 + 64;
}

int run() {
  banner("E12: bench_longrun", "extension: bounded-memory retention",
         "watermark compaction under faults: plateau + verdict identity");
  auto& registry = obs::MetricRegistry::global();

  // --- phase 1: plateau ---
  SoakConfig cfg = plateau_config();
  obs::ScrapeServer server(obs::ScrapeServer::Options{
      static_cast<std::uint16_t>(env_u64("SYNCON_METRICS_PORT", 0)),
      "bench_longrun"});
  if (std::getenv("SYNCON_METRICS_PORT") != nullptr && server.ok()) {
    std::printf("serving scrapes on http://127.0.0.1:%u\n", server.port());
    cfg.on_cycle = [&server](std::uint64_t cycle) {
      if (cycle % 64 == 0) server.serve_pending();
    };
  }
  const auto t0 = std::chrono::steady_clock::now();
  const SoakResult soak = run_soak(cfg);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const bool plateau_ok = plateaus(soak.live_log_samples);

  TextTable table({"plateau phase", "value"});
  table.new_row()
      .add_cell(std::string("cycles"))
      .add_cell(cfg.workload.cycles);
  table.new_row()
      .add_cell(std::string("events executed"))
      .add_cell(with_thousands(soak.executed_events));
  table.new_row()
      .add_cell(std::string("events reclaimed"))
      .add_cell(with_thousands(soak.reclaimed_events));
  table.new_row()
      .add_cell(std::string("compactions"))
      .add_cell(soak.compactions);
  table.new_row()
      .add_cell(std::string("live log peak / final"))
      .add_cell(std::to_string(soak.live_log_peak) + " / " +
                std::to_string(soak.live_log_final));
  table.new_row()
      .add_cell(std::string("plateau held"))
      .add_cell(std::string(plateau_ok ? "yes" : "NO"));
  table.new_row()
      .add_cell(std::string("definite / pending fires"))
      .add_cell(std::to_string(soak.definite_fires) + " / " +
                std::to_string(soak.pending_fires));
  table.new_row()
      .add_cell(std::string("reports dropped / duplicated"))
      .add_cell(std::to_string(soak.report_stats.dropped) + " / " +
                std::to_string(soak.report_stats.duplicated));
  table.new_row()
      .add_cell(std::string("resync rounds"))
      .add_cell(soak.resync_rounds);
  table.new_row()
      .add_cell(std::string("late joiner converged"))
      .add_cell(std::string(soak.late_joiner_converged ? "yes" : "NO"));
  table.new_row()
      .add_cell(std::string("checkpoint surface replies"))
      .add_cell(soak.surface_replies);
  table.new_row()
      .add_cell(std::string("events/s"))
      .add_cell(with_thousands(static_cast<std::uint64_t>(
          secs > 0 ? static_cast<double>(soak.executed_events) / secs : 0)));
  std::printf("%s\n", table.to_string().c_str());

  // --- phase 2: verdict identity (deterministic app, lossy reports) ---
  SoakConfig faulty = cfg;
  faulty.workload.cycles =
      std::max<std::uint64_t>(2000, cfg.workload.cycles / 20);
  faulty.workload.app_link.reset();  // reliable: one execution in both runs
  faulty.workload.recover_every = 24;
  faulty.workload.compact_every = 48;
  SoakConfig clean = faulty;
  clean.workload.report_link = LinkFaultConfig{};
  clean.workload.compact_every = 0;  // uncompacted reference
  const char* causal_path = std::getenv("SYNCON_CAUSAL_TRACE");
  clean.capture_observability = causal_path != nullptr;

  const SoakResult faulty_run = run_soak(faulty);
  const SoakResult clean_run = run_soak(clean);

  if (causal_path != nullptr && clean_run.execution) {
    const Timestamps stamps(*clean_run.execution);
    obs::CausalTrace trace =
        obs::build_causal_trace(*clean_run.execution, stamps);
    obs::append_monitor_spans(trace, clean_run.waterfalls);
    obs::append_flight_spans(trace, clean_run.flight);
    std::string why;
    const bool consistent = obs::verify_causal_consistency(
        trace, *clean_run.execution, stamps, &why);
    std::ofstream out(causal_path);
    obs::write_causal_otlp(out, trace);
    std::printf("causal trace (%zu spans, consistency %s) -> %s\n",
                trace.spans.size(), consistent ? "verified" : why.c_str(),
                causal_path);
  }
  const bool identical =
      !clean_run.definite_verdicts.empty() &&
      faulty_run.definite_verdicts == clean_run.definite_verdicts;

  TextTable id_table({"identity phase", "value"});
  id_table.new_row()
      .add_cell(std::string("definite verdicts (clean / compacted)"))
      .add_cell(std::to_string(clean_run.definite_verdicts.size()) + " / " +
                std::to_string(faulty_run.definite_verdicts.size()));
  id_table.new_row()
      .add_cell(std::string("compacted run reclaimed"))
      .add_cell(with_thousands(faulty_run.reclaimed_events));
  id_table.new_row()
      .add_cell(std::string("verdict sequences bit-identical"))
      .add_cell(std::string(identical ? "yes" : "NO"));
  std::printf("%s\n", id_table.to_string().c_str());

  // --- phase 3 (opt-in): multi-tenant service soak ---
  bool service_ok = true;
  if (const std::uint64_t tenants = env_u64("SYNCON_TENANTS", 0);
      tenants > 0) {
    service::DaemonOptions daemon_options;
    daemon_options.shards =
        static_cast<std::size_t>(env_u64("SYNCON_SERVICE_SHARDS", 8));
    daemon_options.memory_budget_events =
        static_cast<std::size_t>(env_u64("SYNCON_SERVICE_BUDGET", 4096));
    service::MonitorDaemon daemon(daemon_options, ThreadPool::shared());

    service::ServiceLoadConfig load;
    load.tenants = static_cast<std::size_t>(tenants);
    load.seed = cfg.workload.seed;
    load.release_finished = true;
    load.workload.report_link = cfg.workload.report_link;
    const auto s0 = std::chrono::steady_clock::now();
    const service::ServiceLoadResult svc = run_service_load(load, daemon);
    const double svc_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - s0)
            .count();
    daemon.publish_metrics();
    service_ok = svc.identity_ok && svc.daemon.frames_quarantined == 0 &&
                 (daemon_options.memory_budget_events == 0 ||
                  svc.daemon.reclaimed_events > 0);

    TextTable svc_table({"service phase", "value"});
    svc_table.new_row().add_cell(std::string("tenants")).add_cell(tenants);
    svc_table.new_row()
        .add_cell(std::string("events / frames"))
        .add_cell(with_thousands(svc.total_events) + " / " +
                  with_thousands(svc.total_frames));
    svc_table.new_row()
        .add_cell(std::string("verdicts (all bit-identical)"))
        .add_cell(std::to_string(svc.verdicts_total) + " / " +
                  std::string(svc.identity_ok ? "yes" : "NO"));
    svc_table.new_row()
        .add_cell(std::string("live-log peak / reclaimed"))
        .add_cell(std::to_string(svc.daemon.live_log_peak) + " / " +
                  with_thousands(svc.daemon.reclaimed_events));
    svc_table.new_row()
        .add_cell(std::string("frames/s"))
        .add_cell(with_thousands(static_cast<std::uint64_t>(
            svc_secs > 0 ? static_cast<double>(svc.total_frames) / svc_secs
                         : 0)));
    std::printf("%s\n", svc_table.to_string().c_str());

    registry.gauge("syncon_longrun_service_identity")
        .set(svc.identity_ok ? 1 : 0);
    registry.gauge("syncon_longrun_service_tenants")
        .set(static_cast<std::int64_t>(svc.tenants_run));
    registry.gauge("syncon_longrun_service_reclaimed")
        .set(static_cast<std::int64_t>(svc.daemon.reclaimed_events));
  }

  registry.gauge("syncon_longrun_executed_events")
      .set(static_cast<std::int64_t>(soak.executed_events));
  registry.gauge("syncon_longrun_reclaimed_events")
      .set(static_cast<std::int64_t>(soak.reclaimed_events));
  registry.gauge("syncon_longrun_live_log_peak")
      .set(static_cast<std::int64_t>(soak.live_log_peak));
  registry.gauge("syncon_longrun_live_log_final")
      .set(static_cast<std::int64_t>(soak.live_log_final));
  registry.gauge("syncon_longrun_plateau_ok").set(plateau_ok ? 1 : 0);
  registry.gauge("syncon_longrun_verdict_identity").set(identical ? 1 : 0);
  registry.gauge("syncon_longrun_late_joiner_converged")
      .set(soak.late_joiner_converged ? 1 : 0);
  registry.gauge("syncon_longrun_surface_replies")
      .set(static_cast<std::int64_t>(soak.surface_replies));
  registry.gauge("syncon_longrun_resync_rounds")
      .set(static_cast<std::int64_t>(soak.resync_rounds));

  const bool ok = plateau_ok && identical && soak.late_joiner_converged &&
                  soak.reclaimed_events > 0 && service_ok;
  if (!ok) std::printf("bench_longrun: FAILED retention guarantees\n");
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  start_telemetry();
  const int rc = run();
  finish_telemetry("bench_longrun");
  return rc;
}
