// Crash-recoverable shells around the online substrate (DESIGN.md §3.12).
//
// DurableSystem journals every executed event — its wire form (delta-framed
// through a LinkEncoder that resets at segment boundaries), its message
// sources, and its physical time — after applying it, and turns compact()
// into compact + durable snapshot. DurableMonitor journals the monitor's
// externally-driven operations (begin/complete, member declarations,
// reports, clock checkpoints, checkpoint adoptions). Constructing either
// over a StorageBackend that holds prior state runs recovery: install the
// newest valid snapshot, then replay the surviving WAL tail in order
// through the idempotent delivery paths — converging to state whose
// verdicts and clocks are bit-identical to an uninterrupted run (the
// `recovery_identity` conformance property).
//
// Journal-after-apply: a crash between apply and journal loses only the
// suffix of unsynced records — exactly the loss the resync path (and the
// `sync_every` dial) already bounds. What is never lost: anything before
// the last sync barrier.
//
// Not journaled, by design: watch registrations (callbacks cannot be
// serialized — re-register after recovery; registration after both actions
// completed fires immediately), mark_crashed (failure-detector state is the
// detector's to re-derive), and OnlineMonitor::forget is journaled as its
// own record so replay memory stays bounded.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>

#include "online/online_monitor.hpp"
#include "online/online_system.hpp"
#include "online/wire_codec.hpp"
#include "store/store.hpp"

namespace syncon {

/// What recovery did (both shells; zeroed on a fresh start).
struct RecoveryStats {
  bool recovered = false;           // prior durable state was found
  std::size_t events_replayed = 0;  // WAL records applied as fresh
  std::size_t events_skipped = 0;   // already covered (snapshot / duplicate)
  std::size_t records_quarantined = 0;  // CRC-valid but unusable records
  std::uint64_t recovery_micros = 0;    // wall time of the constructor scan
};

class DurableSystem {
 public:
  DurableSystem(std::size_t process_count, StorageBackend& storage,
                DurabilityPolicy policy = {});

  /// Read access. Every mutation that must survive a crash goes through the
  /// wrapper's own methods — the const view cannot bypass the journal.
  const OnlineSystem& system() const { return system_; }
  Store& store() { return store_; }
  const RecoveryStats& recovery() const { return stats_; }

  std::size_t process_count() const { return system_.process_count(); }

  // Journaling counterparts of the OnlineSystem mutators.
  EventId local(ProcessId p, std::int64_t when = OnlineSystem::kNoTime);
  WireMessage send(ProcessId p, std::int64_t when = OnlineSystem::kNoTime);
  EventId deliver(ProcessId p, const WireMessage& message,
                  std::int64_t when = OnlineSystem::kNoTime);
  EventId deliver_all(ProcessId p, std::span<const WireMessage> messages,
                      std::int64_t when = OnlineSystem::kNoTime);
  /// Hardened ingress (OnlineSystem::try_deliver): rejected messages are
  /// quarantined, never journaled.
  bool try_deliver(ProcessId p, const WireMessage& message,
                   std::int64_t when = OnlineSystem::kNoTime,
                   EventId* receipt = nullptr);

  /// compact() + a durable snapshot every policy().snapshot_every calls
  /// (the snapshot is what lets the store prune WAL segments).
  std::size_t compact(const VectorClock& watermark);
  /// Forces a durable snapshot of the current retention checkpoint now.
  void snapshot_now();
  /// Forces the WAL durable (exception-safety barrier for the caller).
  void sync() { store_.sync(); }

 private:
  void journal_event(EventId e);

  OnlineSystem system_;
  Store store_;
  RecoveryStats stats_;
  LinkEncoder encoder_;
  std::uint64_t encoder_segment_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t compactions_ = 0;
};

class DurableMonitor {
 public:
  DurableMonitor(std::size_t process_count, StorageBackend& storage,
                 DurabilityPolicy policy = {});

  /// The wrapped monitor: watch registration (not journaled) and all
  /// read-only queries. State-changing feed operations must go through the
  /// wrapper or they will not survive a crash.
  OnlineMonitor& monitor() { return monitor_; }
  const OnlineMonitor& monitor() const { return monitor_; }
  Store& store() { return store_; }
  const RecoveryStats& recovery() const { return stats_; }

  // Journaling counterparts of the monitor's feed operations.
  void begin(const std::string& label);
  /// A new member declaration is journaled pinned; declaring a member
  /// again journals nothing.
  void record(const std::string& label, EventId e);
  const IntervalSummary& complete(const std::string& label);
  /// A fresh report is journaled, pinned exactly when it folded into an
  /// action: a member report rebuilds a summary at replay, while a plain
  /// observation stays prunable (the adopted cut forgives it). Quarantined
  /// and duplicate reports are never journaled.
  bool observe(const WireMessage& report,
               std::int64_t when = OnlineSystem::kNoTime);
  void checkpoint(const VectorClock& snapshot);
  /// adopt_checkpoint() + a durable snapshot every policy().snapshot_every
  /// adoptions. Memberships, member reports and every lifecycle record
  /// (begin, complete, forget, checkpoint, adopt) are appended pinned, the
  /// Store never unpins a segment, and pruning stops at the first pinned
  /// one: only segments written before any of them can go, so under action
  /// churn this WAL grows without bound.
  void adopt_checkpoint(const RetentionCheckpoint& checkpoint);
  void forget(const std::string& label);
  void sync() { store_.sync(); }

 private:
  void journal(std::uint8_t kind, std::span<const std::uint8_t> body,
               std::span<const EventId> touches, bool pinned);
  void journal_report(const WireMessage& report, std::int64_t when);

  std::size_t process_count_;
  OnlineMonitor monitor_;
  Store store_;
  RecoveryStats stats_;
  LinkEncoder encoder_;
  std::uint64_t encoder_segment_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t adoptions_ = 0;
};

}  // namespace syncon
