// One ring-and-pairs workload, two hosts (DESIGN.md §3.10, §3.15): a ring
// of processes exchanging clock-stamped messages, tracked action pairs
// opening / completing / being forgotten head-of-line, every event reported
// to the monitor over per-process lossy channels, and a checkpoint + resync
// on a fixed cadence. One generator runs it and applies each op to a
// TenantSessionCore (a replica log plus a feed-only OnlineMonitor):
//   * generate_tenant_script keeps the ops — a service tenant's traffic;
//   * run_soak keeps none (its plateau run executes ~1M events) and, when
//     the workload compacts, compacts the session's replica at its
//     monitor's pin and the application log at its oldest unconsumed send.
//
// The soak exists to demonstrate — and let tests/benchmarks assert — the
// three retention guarantees:
//   (a) verdict identity: the Definite-firing sequence of a faulty,
//       compacted run is bit-identical to the clean, uncompacted run;
//   (b) bounded memory: the live log plateaus instead of growing with the
//       event count;
//   (c) checkpoint serving: a late-joining monitor whose resync crosses the
//       watermark converges via surface reports + adopt_checkpoint.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/execution.hpp"
#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "service/session.hpp"
#include "sim/faulty_channel.hpp"

namespace syncon {

// --- tenant scripts (DESIGN.md §3.15) ----------------------------------------

/// Knobs of one ring-and-pairs workload: a service tenant or a soak run.
/// Deterministic in (fields, seed).
struct TenantWorkload {
  std::size_t processes = 3;
  /// Main-loop cycles; every cycle each process sends once around the ring.
  std::uint64_t cycles = 18;
  /// Open one tracked action pair every this many cycles.
  std::uint64_t action_every = 4;
  /// Checkpoint + chunked-resync cadence.
  std::uint64_t recover_every = 8;
  /// Per-round cap on resync request size (must be positive).
  std::size_t resync_chunk = 64;
  /// Compaction cadence (0 = never): the session's replica compacts at its
  /// monitor's pin, the application log at its oldest unconsumed send.
  std::uint64_t compact_every = 0;
  /// The application ring. nullopt: reliable, each send delivered in the
  /// cycle it was sent. A value: a FaultyNetwork with these faults,
  /// duplicate deliveries suppressed and counted, and unconsumed sends
  /// re-shipped every 4 cycles (drops change the execution itself, so leave
  /// it fault-free for verdict-identity comparisons).
  std::optional<LinkFaultConfig> app_link;
  /// Faults on the event-report feed (the journal stream stays reliable —
  /// it is the authoritative WAL-shaped stream).
  LinkFaultConfig report_link;
  std::uint64_t seed = 1;
};

/// One tenant's flattened traffic plus the reference outcome of applying it.
struct TenantScript {
  std::size_t processes = 0;
  std::size_t resync_chunk = 0;
  std::vector<service::TenantOp> ops;
  std::uint64_t executed_events = 0;
  /// Definite verdict log of the generation-time reference session — the
  /// bit-identity baseline every other consumer is compared against.
  std::vector<std::string> reference_verdicts;
};

/// Generates one tenant's script: the ring-and-pairs workload flattened to
/// ops. Deterministic: same workload → same script and the same reference
/// verdicts, bit for bit.
TenantScript generate_tenant_script(const TenantWorkload& workload);

// --- the soak ----------------------------------------------------------------

/// Knobs of one soak run. Everything is deterministic in the config.
struct SoakConfig {
  TenantWorkload workload;
  /// Causal-observability capture (DESIGN.md §3.13): turns on the monitor's
  /// detection-latency tracking and the flight recorder for the run, and
  /// fills SoakResult::waterfalls / flight / execution (the latter only for
  /// uncompacted runs, where the full execution is still materializable).
  bool capture_observability = false;
  /// Called at the end of every main-loop cycle — the live-observation hook
  /// (serve scrape requests, publish metrics) for daemon-shaped harnesses.
  std::function<void(std::uint64_t cycle)> on_cycle;
};

/// What one soak run produced.
struct SoakResult {
  /// Events executed by the system (sends + receives + action locals).
  std::uint64_t executed_events = 0;
  /// The replica's retention counters at the end of the run.
  std::uint64_t reclaimed_events = 0;
  std::uint64_t compactions = 0;
  std::size_t live_log_peak = 0;
  std::size_t live_log_final = 0;
  /// The replica's live-log size sampled right after each compaction — the
  /// plateau the soak test / bench asserts on.
  std::vector<std::size_t> live_log_samples;
  /// "x|y|holds" per Definite watch firing, in firing order — the
  /// bit-identity payload: equal across clean/faulty/compacted runs.
  std::vector<std::string> definite_verdicts;
  std::uint64_t definite_fires = 0;
  std::uint64_t pending_fires = 0;
  std::uint64_t duplicate_reports = 0;
  std::uint64_t resync_rounds = 0;
  ChannelStats app_stats;
  ChannelStats report_stats;
  /// Runs that reclaimed events end with a late joiner: a fresh monitor
  /// whose resync from the replica crosses the watermark.
  bool late_joiner_converged = false;
  /// Its resync replies answered from the retention checkpoint's surface.
  std::uint64_t surface_replies = 0;
  /// capture_observability only: the retained verdict waterfalls, the
  /// flight-recorder contents at the end of the run, and (for uncompacted
  /// runs) the full execution for causal-trace export.
  std::vector<obs::Waterfall> waterfalls;
  std::vector<obs::FlightRecord> flight;
  std::shared_ptr<const Execution> execution;
};

/// Runs the workload through one TenantSessionCore, keeping no ops.
/// Deterministic: same config → same result, bit for bit.
SoakResult run_soak(const SoakConfig& config);

}  // namespace syncon
