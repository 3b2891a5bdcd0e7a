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
#include "online/online_monitor.hpp"
#include "sim/faulty_channel.hpp"

namespace syncon {

// --- multi-tenant tenant scripts (DESIGN.md §3.15) ---------------------------
//
// One *tenant* is one independently monitored execution. Its entire monitor-
// side traffic — action lifecycle, journaled events, lossy event reports,
// checkpoint broadcasts — is flattened into a deterministic op sequence
// (TenantScript) that can be applied anywhere: directly (the standalone
// offline baseline), or encoded through the service wire codec into a
// sharded daemon. Verdict identity between those two consumers is the
// service's headline guarantee: framing, sharding, backpressure and
// memory-budget compaction must not perturb any tenant's verdict stream.

/// One monitor-side operation of a tenant's feed. The op carries everything
/// its application needs — ops are self-contained so a session can be fed
/// from a wire decoder with no side channel.
struct TenantOp {
  enum class Kind : std::uint8_t {
    kBegin,       ///< open action `label`
    kWatch,       ///< watch `relation`(label, label2)
    kComplete,    ///< complete action `label`
    kForget,      ///< forget action `label` (and its members)
    kEvent,       ///< journal replay: restore_event, then record(label)
    kReport,      ///< lossy report `message`, observed
    kCheckpoint,  ///< authoritative snapshot `message.clock` + resync
  };

  Kind kind = Kind::kEvent;
  std::string label;              ///< see Kind
  std::string label2;             ///< kWatch: the y action
  RelationId relation{};          ///< kWatch
  /// kEvent / kReport: the event and its clock, as the link codec decodes
  /// them and the monitor observes them; kCheckpoint: the snapshot clock.
  WireMessage message;
  std::vector<EventId> sources;   ///< kEvent: journaled receive sources
  std::int64_t time = OnlineSystem::kNoTime;  ///< kEvent

  friend bool operator==(const TenantOp&, const TenantOp&) = default;
};

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
  std::vector<TenantOp> ops;
  std::uint64_t executed_events = 0;
  /// Definite verdict log of the generation-time reference session — the
  /// bit-identity baseline every other consumer is compared against.
  std::vector<std::string> reference_verdicts;
};

/// The per-tenant session state machine: a replica OnlineSystem (rebuilt
/// from kEvent ops, serves resyncs and retention) plus a feed-only
/// OnlineMonitor, which learns each action's members from the labeled
/// kEvent ops and routes every report itself. Ops are applied in stream
/// order; any op whose contract fails (a corrupted or spliced wire stream,
/// an event labeled with no open action) is quarantined — counted, never
/// fatal, never visible to other sessions. Not movable: watch callbacks
/// capture `this`.
class TenantSessionCore {
 public:
  explicit TenantSessionCore(std::size_t processes,
                             std::size_t resync_chunk = 64);

  TenantSessionCore(const TenantSessionCore&) = delete;
  TenantSessionCore& operator=(const TenantSessionCore&) = delete;

  /// Applies one op; a ContractViolation quarantines the op instead of
  /// propagating.
  void apply(const TenantOp& op);

  /// "x|y|holds" per Definite watch firing, in firing order.
  const std::vector<std::string>& definite_verdicts() const {
    return verdicts_;
  }

  /// Ops + reports rejected so far (session-level contract catches plus the
  /// monitor's own wire quarantine).
  std::uint64_t quarantined() const {
    return quarantined_ops_ + monitor_.quarantined();
  }

  /// Compacts the replica log at the monitor's retention pin; returns log
  /// entries reclaimed. Safe at any op boundary: the pin keeps every event
  /// a future resync or open action can still need (DESIGN.md §3.10).
  std::size_t compact_at_pin();

  /// Resync rounds the checkpoint ops have run.
  std::uint64_t resync_rounds() const { return resync_rounds_; }

  /// Turns the monitor's detection-latency waterfalls on or off.
  void set_latency_tracking(bool on) { monitor_.set_latency_tracking(on); }

  const OnlineSystem& system() const { return sys_; }
  const OnlineMonitor& monitor() const { return monitor_; }

 private:
  void apply_checked(const TenantOp& op);

  OnlineSystem sys_;
  OnlineMonitor monitor_;
  VectorClock pin_;  // compact_at_pin's pin, reused: no allocation per call
  std::size_t resync_chunk_;
  std::vector<std::string> verdicts_;
  std::uint64_t quarantined_ops_ = 0;
  std::uint64_t resync_rounds_ = 0;
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
