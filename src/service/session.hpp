// One tenant's session (DESIGN.md §3.15). A tenant is one independently
// monitored execution; its monitor-side traffic — action lifecycle,
// journaled events, lossy reports, checkpoints — is an op sequence that a
// TenantSessionCore applies directly (the standalone baseline) or behind
// the wire codec in a sharded daemon. Verdict identity between the two is
// the service's headline guarantee.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "online/online_monitor.hpp"

namespace syncon::service {

/// A tenant frame's kind byte. A hello opens a session and is never an op;
/// every other kind is an op's kind, so an op is framed under its own kind.
enum class FrameKind : std::uint8_t {
  kHello = 1,       ///< opens a tenant session: varint(processes) varint(chunk)
  kBegin = 2,       ///< open action `label`
  kWatch = 3,       ///< watch `relation`(label, label2)
  kComplete = 4,    ///< complete action `label`
  kForget = 5,      ///< forget action `label` (and its members)
  kEvent = 6,       ///< journal replay: restore_event, then record(label)
  kReport = 7,      ///< lossy report `message`, observed
  kCheckpoint = 8,  ///< authoritative snapshot `message.clock` + resync
};

/// One monitor-side operation of a tenant's feed. The op carries everything
/// its application needs — ops are self-contained so a session can be fed
/// from a wire decoder with no side channel.
struct TenantOp {
  using Kind = FrameKind;  // an op is framed under its own kind

  FrameKind kind = FrameKind::kEvent;
  std::string label;              ///< see FrameKind
  std::string label2;             ///< kWatch: the y action
  RelationId relation{};          ///< kWatch
  /// kEvent / kReport: the event and its clock, as the link codec decodes
  /// them and the monitor observes them; kCheckpoint: the snapshot clock.
  WireMessage message;
  std::vector<EventId> sources;   ///< kEvent: journaled receive sources
  std::int64_t time = OnlineSystem::kNoTime;  ///< kEvent

  /// Sets `kind` and every other field to its default, keeping the storage:
  /// a reused op allocates only when a field outgrows it.
  void reset(FrameKind k);

  friend bool operator==(const TenantOp&, const TenantOp&) = default;
};

/// The per-tenant session state machine: a replica OnlineSystem (rebuilt
/// from kEvent ops, serves resyncs and retention) plus a feed-only
/// OnlineMonitor, which learns each action's members from the labeled
/// kEvent ops and routes every report itself. Ops are applied in stream
/// order; any op whose contract fails (a corrupted or spliced wire stream,
/// an event labeled with no open action, a hello) is quarantined — counted,
/// never fatal, never visible to other sessions. Not movable: watch
/// callbacks capture `this`.
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

}  // namespace syncon::service
