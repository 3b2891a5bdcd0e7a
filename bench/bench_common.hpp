// Shared setup for the benchmark harness: standard workloads, interval
// samplers and pretty-printers used by every experiment binary.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cuts/ll_relation.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "model/timestamps.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "sim/interval_picker.hpp"
#include "sim/workload.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace syncon::bench {

/// The standard benchmark substrate: one execution, its timestamps, and a
/// pool of sampled interval pairs.
struct Substrate {
  Execution exec;
  std::unique_ptr<Timestamps> ts;
  std::vector<NonatomicEvent> intervals;

  Substrate(Substrate&&) = delete;  // NonatomicEvents hold &exec

  explicit Substrate(const WorkloadConfig& cfg, const IntervalSpec& spec,
                     std::size_t interval_count, std::uint64_t sample_seed)
      : exec(generate_execution(cfg)) {
    ts = std::make_unique<Timestamps>(exec);
    Xoshiro256StarStar rng(sample_seed);
    intervals = random_intervals(exec, rng, spec, interval_count);
  }
};

inline WorkloadConfig standard_workload(std::size_t processes,
                                        std::size_t events_per_process,
                                        std::uint64_t seed = 12345) {
  WorkloadConfig cfg;
  cfg.process_count = processes;
  cfg.events_per_process = events_per_process;
  cfg.send_probability = 0.35;
  cfg.receive_probability = 0.7;
  cfg.topology = Topology::Random;
  cfg.seed = seed;
  return cfg;
}

inline IntervalSpec standard_spec(std::size_t nodes,
                                  std::size_t events_per_node) {
  IntervalSpec spec;
  spec.node_count = nodes;
  spec.max_events_per_node = events_per_node;
  return spec;
}

/// Comparisons per relation query, computed from a returned QueryCost — not
/// from any evaluator-global counter, so the number stays correct when the
/// same evaluator serves several benchmark loops or concurrent sweeps.
inline double comparisons_per_query(const QueryCost& cost,
                                    std::size_t queries) {
  if (queries == 0) return 0.0;
  return static_cast<double>(cost.integer_comparisons) /
         static_cast<double>(queries);
}

/// Lazily constructed pools for the parallel-vs-serial ablations; one pool
/// per distinct thread count, reused across benchmark iterations.
inline ThreadPool& pool_with(std::size_t threads) {
  static std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const auto& p : pools) {
    if (p->thread_count() == threads) return *p;
  }
  pools.push_back(std::make_unique<ThreadPool>(threads));
  return *pools.back();
}

/// Turns telemetry on for the whole benchmark run (DESIGN.md §3.8). Pair
/// with finish_telemetry() at the end of main.
inline void start_telemetry() { obs::set_enabled(true); }

/// Prints the per-phase span summary table, then honors two environment
/// variables: SYNCON_BENCH_JSON names a file for the telemetry JSON
/// snapshot (scripts/ci_bench_smoke.sh assembles these per-binary
/// snapshots into BENCH_smoke.json), and SYNCON_BENCH_TRACE names a file
/// for the Chrome trace-event export (load it in Perfetto or
/// chrome://tracing — see README "Telemetry" quickstart).
inline void finish_telemetry(const char* run_name) {
  obs::set_enabled(false);
  std::printf("\n=== span summary: %s ===\n", run_name);
  std::ostringstream table;
  obs::write_span_summary(table, obs::FlightRecorder::spans());
  std::fputs(table.str().c_str(), stdout);
  if (const char* path = std::getenv("SYNCON_BENCH_JSON")) {
    std::ofstream out(path);
    obs::write_json(out, obs::MetricRegistry::global().snapshot(), run_name);
    std::printf("telemetry snapshot -> %s\n", path);
  }
  if (const char* path = std::getenv("SYNCON_BENCH_TRACE")) {
    std::ofstream out(path);
    obs::write_chrome_trace(out, obs::FlightRecorder::spans());
    std::printf("chrome trace -> %s (open in Perfetto)\n", path);
  }
}

/// Prints a banner so the harness output reads like the paper artifact it
/// regenerates.
inline void banner(const char* experiment, const char* paper_artifact,
                   const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — reproduces %s\n%s\n", experiment, paper_artifact, what);
  std::printf("==============================================================\n");
}

}  // namespace syncon::bench
