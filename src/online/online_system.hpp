// Online (runtime) substrate for the paper's real-time motivation: instead
// of stamping a recorded trace after the fact, processes maintain vector
// clocks incrementally and piggyback them on messages — the classical
// Fidge/Mattern protocol — so synchronization conditions can be tested
// while the application runs.
//
// The clock convention matches the offline Timestamps class (T counts
// dummies, so a process's first event has own-component 2), which makes the
// online and offline paths directly comparable in tests.
//
// Storage (DESIGN.md §3.10): as in Timestamps, a clock row is stored only
// where a clock changes, in flat per-process columns, and clock_of reads an
// event through a StampView.
//
// Fault tolerance (DESIGN.md §3.7): real transports drop, duplicate,
// reorder and delay messages. Delivery is therefore idempotent — each
// (receiver, source-event) pair executes at most one receive event; a
// duplicate arrival is suppressed and answered with the original receive's
// id. Each receiver also runs a GapTracker over the piggybacked clocks: a
// received clock vouching for events never directly delivered here flags a
// lost predecessor, and the resync path (resync_request → serve → deliver)
// recovers it from the sender's log, converging a faulty run back to the
// fault-free one.
//
// Retention (DESIGN.md §3.10): a long-running system cannot keep every
// logged event forever. compact() reclaims the log prefix inside a
// low-watermark cut (cuts/watermark.hpp) supplied by the deployment — the
// componentwise min of every consumer's witnessed contiguous prefix
// (retention_watermark() for in-system receivers, OnlineMonitor::
// watermark_pin() for report consumers) — and records a RetentionCheckpoint
// so retransmit requests that cross the watermark are answered with the
// cut's surface report instead of aborting.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cuts/watermark.hpp"
#include "model/execution.hpp"
#include "model/timestamps.hpp"
#include "model/types.hpp"
#include "model/vector_clock.hpp"
#include "online/gap_tracker.hpp"

namespace syncon {

/// What actually travels on the wire: the sender's event id plus its
/// timestamp. |P| clock values per message — the protocol's only overhead.
/// The same record doubles as the event *report* a remote monitor consumes.
struct WireMessage {
  EventId source;
  VectorClock clock;

  friend bool operator==(const WireMessage&, const WireMessage&) = default;
};

class OnlineSystem {
 public:
  explicit OnlineSystem(std::size_t process_count);

  std::size_t process_count() const { return clocks_.size(); }

  /// Executes an internal event on process p. `when` is the local physical
  /// time of the event in µs (kNoTime if the application does not track
  /// time); per-process times must be strictly increasing when provided.
  EventId local(ProcessId p, std::int64_t when = kNoTime);

  /// Executes a send event on p; the returned message carries the clock.
  /// Deliver it any number of times (multicast) to other processes.
  WireMessage send(ProcessId p, std::int64_t when = kNoTime);

  /// Executes a receive event on p, merging the piggybacked clock.
  /// Idempotent: delivering a message whose source was already consumed by
  /// p executes nothing and returns the original receive event's id (the
  /// suppression is counted in duplicates_suppressed()). When the original
  /// receive's dedup record was reclaimed by compaction, the suppression
  /// still happens (the receiver's GapTracker remembers every witnessed
  /// source) and the dummy id {p, 0} is returned — "consumed before the
  /// current checkpoint".
  EventId deliver(ProcessId p, const WireMessage& message,
                  std::int64_t when = kNoTime);

  /// Executes one receive event consuming several messages at once (gather
  /// / barrier commit points). Duplicate sources — within the batch or
  /// against earlier deliveries — are suppressed first; if every message is
  /// a duplicate, no event executes and the receive that first consumed
  /// messages[0].source is returned.
  EventId deliver_all(ProcessId p, std::span<const WireMessage> messages,
                      std::int64_t when = kNoTime);

  /// Sentinel for "no physical timestamp".
  static constexpr std::int64_t kNoTime = std::int64_t{-1};

  /// Physical time of an executed event (kNoTime if it was not stamped).
  std::int64_t time_of(EventId e) const;

  /// T of the latest event executed by p (all-zero+own=1 before any event,
  /// i.e. the clock of ⊥_p).
  const VectorClock& current_clock(ProcessId p) const;

  /// T(e) of a live executed event, read through its stored row as
  /// Timestamps::forward_ref is. The view borrows the log: the next event,
  /// restore or compaction may invalidate it, so call .dense() to keep it.
  StampView clock_of(EventId e) const;

  /// Events executed so far by p / in total.
  EventIndex executed(ProcessId p) const;
  std::size_t total_executed() const { return total_; }

  // --- fault tolerance -------------------------------------------------------

  /// Re-materializes the wire form of any executed event — the
  /// retransmission primitive: a lost message (or a lost event report for a
  /// remote monitor) can be served again at any time. For an event whose
  /// log entry was reclaimed by compact(), the answer comes from the
  /// retention checkpoint instead: the returned report is the watermark
  /// cut's *surface* event on e's process, whose clock vouches for e and
  /// everything else inside the cut (the requester adopts the checkpoint —
  /// OnlineMonitor::adopt_checkpoint — rather than replaying e itself).
  WireMessage wire_of(EventId e) const;

  /// True iff p already consumed a message with this source event.
  bool already_delivered(ProcessId p, EventId source) const;

  /// Fault-hardened deliver: a malformed or corrupt message (unknown source
  /// process, foreign clock size, impossible receiver component, physical
  /// time regression) is rejected — counted in quarantined() — instead of
  /// tripping the delivery contract checks, so wire garbage cannot kill the
  /// process (DESIGN.md §3.12). On success `receipt` (when non-null) gets
  /// what deliver() would have returned.
  bool try_deliver(ProcessId p, const WireMessage& message,
                   std::int64_t when = kNoTime, EventId* receipt = nullptr);

  /// Messages rejected by try_deliver so far.
  std::uint64_t quarantined() const { return quarantined_; }

  /// Duplicate deliveries suppressed across all processes so far.
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }

  /// Lost predecessors at p: events some delivered clock vouched for but
  /// whose own message never reached p. Exact for topologies where peers
  /// ship every event to p (monitor feeds, full replication); in sparse
  /// meshes transitively-learned events are reported too, by design — p
  /// genuinely never witnessed them.
  /// `limit` bounds the enumeration: after a long outage the hole set can
  /// run to millions of events, and recovery should request them in chunks
  /// (repeat resync_request/serve/deliver until has_gap clears) instead of
  /// materializing one EventId per hole up front.
  std::vector<EventId> missing_at(
      ProcessId p,
      std::size_t limit = std::numeric_limits<std::size_t>::max()) const;
  bool has_gap(ProcessId p) const;

  /// Retransmit request covering missing_at(p, limit).
  RetransmitRequest resync_request(
      ProcessId p,
      std::size_t limit = std::numeric_limits<std::size_t>::max()) const;

  /// Serves a retransmit request from this (authoritative) log: one wire
  /// message per requested event that has executed here. Requested events
  /// not executed here are skipped — a crashed process's log cannot serve.
  /// Requests that cross the retention watermark are answered from the
  /// checkpoint: at most one surface report per process covers every
  /// reclaimed event requested on it (see wire_of).
  std::vector<WireMessage> serve(const RetransmitRequest& request) const;

  /// Authoritative global clock snapshot: component q = 1 + events executed
  /// by q (same dummy-counting convention as event clocks). Broadcast it
  /// periodically so observers can detect *tail* losses — lost reports no
  /// later report's clock would ever vouch for (OnlineMonitor::checkpoint).
  VectorClock snapshot() const;

  /// Materializes the run so far as an offline Execution (for
  /// cross-validation and archival). Requires the full log — a compacted
  /// system cannot reconstruct reclaimed events.
  Execution to_execution() const;

  // --- retention / compaction ------------------------------------------------

  /// Reclaims every log entry inside the watermark cut (counts form, same
  /// dummy-counting convention as snapshot(): component p of value c covers
  /// events (p, 1..c-1)). The effective cut is clamped per component to
  /// [current checkpoint, executed + 1], so compaction is monotone and never
  /// outruns the log. Records the RetentionCheckpoint (cut + surface clocks
  /// + surface times) before dropping entries, erases dedup records inside
  /// the cut, and returns the number of log entries reclaimed.
  ///
  /// The caller owns watermark safety: compact only up to what every
  /// consumer has durably witnessed — compose retention_watermark() for
  /// in-system receivers with each OnlineMonitor::watermark_pin().
  std::size_t compact(const VectorClock& watermark);

  /// The in-system receivers' low-watermark cut: component p is
  /// 1 + min over receivers q != p of gaps_[q].contiguous_prefix(p).
  /// Exact only under full replication (every event's wire shipped to every
  /// peer, e.g. monitor-feed topologies); in sparse meshes receivers never
  /// witness events not sent to them, so this stalls — compose the
  /// watermark from consumer-side pins instead.
  VectorClock retention_watermark() const;

  /// The checkpoint recorded by the latest compact() (bottom before any).
  const RetentionCheckpoint& checkpoint() const { return checkpoint_; }

  /// Log entries currently held in memory / reclaimed so far.
  std::size_t live_log_events() const;
  std::uint64_t reclaimed_events() const { return checkpoint_.reclaimed_total; }

  /// Events (p, 1..reclaimed_before(p)) have been reclaimed; an EventId is
  /// live iff its index is beyond this base.
  EventIndex reclaimed_before(ProcessId p) const;
  bool is_live(EventId e) const;

  // --- durability / crash recovery (DESIGN.md §3.12) -------------------------

  /// Installs a retention checkpoint into a *fresh* system (no events
  /// executed) — the first step of crash recovery. The checkpoint's cut
  /// becomes the reclaimed log prefix, its surface clocks/times become each
  /// process's current state, and every receiver's gap tracker forgives the
  /// cut and claims the surfaces. Requires the deployment's compaction
  /// precondition (compact only below every consumer's durable watermark):
  /// then everything a pre-crash receiver witnessed or claimed below the cut
  /// is covered, and replaying the WAL tail converges to the pre-crash
  /// state. restore_checkpoint(bottom(n)) is the fresh system itself.
  void restore_checkpoint(const RetentionCheckpoint& checkpoint);

  /// Re-executes one journaled event during WAL replay. The id, clock,
  /// sources and time are authoritative — they were journaled after the
  /// original execution — so this bypasses deliver()'s merge and writes them
  /// back verbatim: clock_of(e) returns exactly `clock`. Idempotent against
  /// the restored checkpoint and earlier replays: an event at or below the
  /// current frontier only refreshes its witness/dedup state (a receive
  /// journaled below the snapshot cut may still be the sole witness of an
  /// above-cut source). Every argument is validated before the first write,
  /// so a rejected event leaves the system untouched. Returns true iff the
  /// event extended the log.
  bool restore_event(EventId e, const VectorClock& clock,
                     std::span<const EventId> sources,
                     std::int64_t time = kNoTime);

  /// Source events of a live executed event (empty for local/send events) —
  /// what the durability layer journals alongside the wire form. A span
  /// into the log, valid until the next mutation.
  std::span<const EventId> sources_of(EventId e) const;

 private:
  // One process's log, as flat columns. Event (p, first + k) has time[k];
  // events (p, 1..base) are reclaimed, and compact() drops the stored dead
  // prefix (first..base) once it is as long as the live part.
  struct Column {
    EventIndex base = 0;
    EventIndex first = 1;
    std::vector<std::int64_t> time;
    // Row r (|P| values at rows[r·|P|]) is in force from event row_from[r]
    // to the next row; the floor before the first. Its own slot is stale.
    std::vector<EventIndex> row_from;
    std::vector<ClockValue> rows;
    // A receive's sources run from its offset to the next receive's.
    struct Receive {
      EventIndex event;
      std::uint32_t offset;
    };
    std::vector<Receive> receives;
    std::vector<EventId> sources;

    EventIndex executed() const {
      return static_cast<EventIndex>(first - 1 + time.size());
    }
    // Once the stored dead prefix is at least as long as the live part,
    // moves the live tail to the front (amortized O(1) per reclaimed event),
    // keeping the row in force at base + 1.
    void drop_dead_prefix(std::size_t width);
  };
  // Dedup record: a source index on one sender and the receive index that
  // consumed it.
  struct Receipt {
    EventIndex source;
    EventIndex receive;
  };

  EventId advance(ProcessId p, std::span<const WireMessage> messages,
                  std::int64_t when);
  void check_deliverable(ProcessId p, const WireMessage& m) const;
  // The live event's column (contract-checked).
  const Column& live_column(EventId e) const;
  // T of a stored event: the row in force at it, own component index + 1.
  StampView stamp(ProcessId p, EventIndex index) const;
  // Appends a row for event (p, index) when its clock's other components
  // differ from the row in force.
  void store_row(ProcessId p, EventIndex index, const VectorClock& clock);
  void record_receipt(ProcessId p, EventId source, EventIndex receive);
  // The receive of p that consumed `source`; 0 once compaction reclaimed
  // its record.
  EventIndex receipt_of(ProcessId p, EventId source) const;

  std::vector<VectorClock> clocks_;  // current clock per process
  std::vector<Column> log_;
  std::vector<ClockValue> floor_;  // all ones: the row before any other
  // Last *timed* physical stamp per process — the monotonicity floor. An
  // untimed event must not reset it (the time-floor bugfix).
  std::vector<std::int64_t> last_timed_;
  // Receipts of receiver p from sender q at [p·|P| + q]. compact() drops
  // each sender's prefix inside the cut; deliver() then falls back to
  // gaps_[p].witnessed(source).
  std::vector<std::vector<Receipt>> receipts_;
  // Per receiver: witnessed/claimed account of every peer's events.
  std::vector<GapTracker> gaps_;
  RetentionCheckpoint checkpoint_;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t quarantined_ = 0;
  std::size_t total_ = 0;
};

/// Replays a recorded execution through an OnlineSystem; events keep their
/// (process, index) ids, so online and offline analyses of the same run can
/// be compared directly.
OnlineSystem replay(const Execution& exec);

}  // namespace syncon
