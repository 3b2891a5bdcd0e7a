#include "store/durable.hpp"

#include <chrono>
#include <vector>

#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "store/snapshot.hpp"
#include "support/contracts.hpp"

namespace syncon {

namespace {

// The kind byte every DurableSystem WAL record leads with.
constexpr std::uint8_t kEvent = 1;

class RecoveryTimer {
 public:
  explicit RecoveryTimer(RecoveryStats& stats)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}
  ~RecoveryTimer() {
    stats_.recovery_micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    if (obs::enabled()) {
      auto& registry = obs::MetricRegistry::global();
      registry.gauge("syncon_store_recovery_us")
          .set(static_cast<std::int64_t>(stats_.recovery_micros));
      static obs::Counter& replayed =
          registry.counter("syncon_store_replayed_records_total");
      replayed.add(stats_.events_replayed);
    }
    if (stats_.recovered) {
      // Attribute the replay time as a detection-latency stage (verdicts
      // that waited on this recovery paid it), note the recovery in the
      // flight ring, and flush the ring so the incident is on disk.
      obs::record_stage_latency("wal_replay", stats_.recovery_micros);
      obs::flight(obs::FlightKind::kRecovery, obs::FlightRecord::kNoProcess,
                  stats_.events_replayed, stats_.recovery_micros);
      obs::flight_auto_dump("recovery");
    }
  }

 private:
  RecoveryStats& stats_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

DurableSystem::DurableSystem(std::size_t process_count,
                             StorageBackend& storage, DurabilityPolicy policy)
    : system_(process_count),
      store_(storage, process_count, policy),
      encoder_(process_count, policy.full_interval) {
  RecoveryTimer timer(stats_);
  const std::vector<Store::RecoveredRecord> records = store_.take_records();
  stats_.recovered = store_.recovery().snapshot.has_value() ||
                     store_.recovery().segments_scanned > 0;
  if (const auto& checkpoint = store_.recovery().snapshot) {
    SYNCON_REQUIRE(checkpoint->cut.size() == process_count,
                   "snapshot covers " + std::to_string(checkpoint->cut.size()) +
                       " processes, this system has " +
                       std::to_string(process_count));
    system_.restore_checkpoint(*checkpoint);
  }
  LinkDecoder decoder(process_count);
  std::uint64_t segment = std::numeric_limits<std::uint64_t>::max();
  WireMessage wire;
  std::vector<EventId> sources;
  std::int64_t time = 0;
  for (const Store::RecoveredRecord& record : records) {
    if (record.segment != segment) {
      // Writers reset their encoder at segment boundaries, so every
      // segment's first frame is absolute and decodes stateless.
      decoder.reset();
      segment = record.segment;
    }
    try {
      std::span<const std::uint8_t> in = record.body;
      SYNCON_REQUIRE(!in.empty() && in.front() == kEvent,
                     "not a system WAL record");
      in = in.subspan(1);
      decode_event_record(decoder, in, wire, sources, time);
      SYNCON_REQUIRE(in.empty(), "trailing bytes in WAL record");
      if (system_.restore_event(wire.source, wire.clock, sources, time)) {
        ++stats_.events_replayed;
      } else {
        ++stats_.events_skipped;
      }
    } catch (const ContractViolation&) {
      // CRC-valid but unusable (format drift, a frame chained onto state a
      // quarantined predecessor should have advanced): skip, keep serving.
      ++stats_.records_quarantined;
    }
  }
}

void DurableSystem::journal_event(EventId e) {
  const std::uint64_t seg = store_.open_segment_seq();
  if (seg != encoder_segment_) {
    encoder_.reset();  // first frame of a segment must be absolute
    encoder_segment_ = seg;
  }
  const std::span<const EventId> sources = system_.sources_of(e);
  std::vector<std::uint8_t> body{kEvent};
  encode_event_record(encoder_, system_.wire_of(e), sources, system_.time_of(e),
                      body);
  std::vector<EventId> touches{e};
  touches.insert(touches.end(), sources.begin(), sources.end());
  store_.append(body, touches);
}

EventId DurableSystem::local(ProcessId p, std::int64_t when) {
  const EventId e = system_.local(p, when);
  journal_event(e);
  return e;
}

WireMessage DurableSystem::send(ProcessId p, std::int64_t when) {
  const WireMessage wire = system_.send(p, when);
  journal_event(wire.source);
  return wire;
}

EventId DurableSystem::deliver(ProcessId p, const WireMessage& message,
                               std::int64_t when) {
  const EventIndex before = system_.executed(p);
  const EventId e = system_.deliver(p, message, when);
  // Suppressed duplicates execute nothing and need no journal entry — the
  // receive that consumed the source was journaled when it executed.
  if (system_.executed(p) != before) journal_event(e);
  return e;
}

EventId DurableSystem::deliver_all(ProcessId p,
                                   std::span<const WireMessage> messages,
                                   std::int64_t when) {
  const EventIndex before = system_.executed(p);
  const EventId e = system_.deliver_all(p, messages, when);
  if (system_.executed(p) != before) journal_event(e);
  return e;
}

bool DurableSystem::try_deliver(ProcessId p, const WireMessage& message,
                                std::int64_t when, EventId* receipt) {
  const EventIndex before = p < process_count() ? system_.executed(p) : 0;
  EventId r{};
  if (!system_.try_deliver(p, message, when, &r)) return false;
  if (system_.executed(p) != before) journal_event(r);
  if (receipt != nullptr) *receipt = r;
  return true;
}

std::size_t DurableSystem::compact(const VectorClock& watermark) {
  const std::size_t reclaimed = system_.compact(watermark);
  snapshot_now();
  return reclaimed;
}

void DurableSystem::snapshot_now() {
  store_.write_snapshot(system_.checkpoint());
}

}  // namespace syncon
