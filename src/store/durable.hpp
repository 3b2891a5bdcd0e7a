// The crash-recoverable shell around the application's online system
// (DESIGN.md §3.12). DurableSystem journals every executed event — its wire
// form (delta-framed through a LinkEncoder that resets at segment
// boundaries), its message sources, and its physical time — after applying
// it, and turns compact() into compact + durable snapshot. Constructing it
// over a StorageBackend that holds prior state runs recovery: install the
// newest valid snapshot, then replay the surviving WAL tail in order
// through the idempotent delivery paths — converging to clocks and traces
// bit-identical to an uninterrupted run (the `recovery_identity`
// conformance property). The monitor side is journaled by the service
// daemon's per-tenant frame journal (service/daemon.hpp).
//
// Journal-after-apply: a crash between apply and journal loses only the
// suffix of unsynced records — exactly the loss the resync path (and the
// `sync_every` dial) already bounds. What is never lost: anything before
// the last sync barrier.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "online/online_system.hpp"
#include "online/wire_codec.hpp"
#include "store/store.hpp"

namespace syncon {

/// What recovery did (zeroed on a fresh start).
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

  /// compact() + a durable snapshot (the snapshot is what lets the store
  /// prune WAL segments).
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
};

}  // namespace syncon
