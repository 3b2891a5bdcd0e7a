#include "store/store.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "store/wal.hpp"
#include "support/contracts.hpp"
#include "support/varint.hpp"

namespace syncon {

namespace {

constexpr char kWalPrefix[] = "wal-";
constexpr char kSnapPrefix[] = "snap-";

std::string seq_name(const char* prefix, std::uint64_t seq) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%s%012llu", prefix,
                static_cast<unsigned long long>(seq));
  return buffer;
}

bool has_prefix(const std::string& name, const char* prefix) {
  return name.rfind(prefix, 0) == 0;
}

std::optional<std::uint64_t> parse_seq(const std::string& name,
                                       const char* prefix) {
  if (!has_prefix(name, prefix)) return std::nullopt;
  const std::string digits = name.substr(std::string(prefix).size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(digits);
}

obs::Counter& records_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("syncon_store_wal_records_total");
  return c;
}

obs::Counter& bytes_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("syncon_store_wal_bytes_total");
  return c;
}

obs::Counter& fsync_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("syncon_store_fsyncs_total");
  return c;
}

obs::Counter& pruned_counter() {
  static obs::Counter& c = obs::MetricRegistry::global().counter(
      "syncon_store_segments_pruned_total");
  return c;
}

obs::Counter& snapshot_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("syncon_store_snapshots_total");
  return c;
}

obs::Counter& corrupt_counter() {
  static obs::Counter& c = obs::MetricRegistry::global().counter(
      "syncon_store_corrupt_frames_total");
  return c;
}

}  // namespace

Store::Store(StorageBackend& storage, std::size_t process_count,
             DurabilityPolicy policy)
    : storage_(storage), process_count_(process_count), policy_(policy) {
  SYNCON_REQUIRE(policy_.sync_every > 0 && policy_.segment_records > 0 &&
                     policy_.full_interval > 0,
                 "durability policy intervals must be positive");
  scan_existing();
  // New records always go into a fresh segment: a recovered tail segment's
  // clock-codec chain state is unknowable to a new encoder, and appending to
  // it would splice undecodable deltas mid-segment.
  open_segment();
}

std::vector<Store::RecoveredRecord> Store::take_records() {
  return std::move(recovered_records_);
}

void Store::scan_existing() {
  std::vector<std::string> snapshot_names;
  std::vector<std::pair<std::uint64_t, std::string>> wal_names;
  for (const std::string& name : storage_.list()) {
    if (const auto seq = parse_seq(name, kSnapPrefix)) {
      snapshot_names.push_back(name);
      next_snapshot_seq_ = std::max(next_snapshot_seq_, *seq + 1);
    } else if (const auto wal_seq = parse_seq(name, kWalPrefix)) {
      wal_names.emplace_back(*wal_seq, name);
      next_segment_seq_ = std::max(next_segment_seq_, *wal_seq + 1);
    }
  }

  // Newest CRC-valid snapshot wins; torn/corrupt ones (a crash mid
  // write_snapshot) are deleted and counted, falling back to the
  // predecessor. Names sort by zero-padded sequence, so reverse order is
  // newest-first.
  for (auto it = snapshot_names.rbegin(); it != snapshot_names.rend(); ++it) {
    if (recovery_.snapshot.has_value()) {
      snapshot_files_.insert(snapshot_files_.begin(), *it);
      continue;
    }
    const std::vector<std::uint8_t> bytes = storage_.read(*it);
    if (auto checkpoint = decode_snapshot(bytes)) {
      recovery_.snapshot = std::move(checkpoint);
      durable_cut_ = recovery_.snapshot->cut;
      snapshot_files_.insert(snapshot_files_.begin(), *it);
    } else {
      ++recovery_.snapshots_discarded;
      if (obs::enabled()) corrupt_counter().add();
      storage_.remove(*it);
    }
  }

  // Scan segments oldest-first, stopping at the first invalid frame: the
  // torn segment is truncated back to its last valid frame and every later
  // segment is removed (see the truncation rule in the header comment).
  std::sort(wal_names.begin(), wal_names.end());
  bool cut = false;
  for (const auto& [seq, name] : wal_names) {
    if (cut) {
      ++recovery_.dropped_segments;
      storage_.remove(name);
      continue;
    }
    const std::vector<std::uint8_t> bytes = storage_.read(name);
    SegmentMeta meta;
    meta.seq = seq;
    meta.name = name;
    meta.bound.assign(process_count_, 0);
    const std::size_t keep =
        read_log(bytes, [&](std::span<const std::uint8_t> in) {
          // A CRC-valid frame with a malformed retention header is the
          // first invalid frame too: the same truncation rule applies.
          std::vector<EventId> touches;
          try {
            const std::uint64_t nbounds = decode_varint(in);
            SYNCON_REQUIRE(nbounds <= in.size(),
                           "impossible retention bound count");
            for (std::uint64_t i = 0; i < nbounds; ++i) {
              const auto process = decode_varint_as<ProcessId>(in);
              SYNCON_REQUIRE(process < process_count_,
                             "retention header names a foreign process");
              touches.push_back({process, decode_varint_as<EventIndex>(in)});
            }
          } catch (const ContractViolation&) {
            return false;
          }
          merge_bound(meta, touches);
          ++recovery_.records;
          recovered_records_.push_back({seq, {in.begin(), in.end()}});
          return true;
        });
    if (keep < bytes.size()) {
      cut = true;
      recovery_.truncated = true;
      recovery_.truncated_bytes += bytes.size() - keep;
      if (obs::enabled()) corrupt_counter().add();
      storage_.truncate(name, keep);
    }
    ++recovery_.segments_scanned;
    if (keep == 0) {
      storage_.remove(name);  // nothing survived; drop the empty shell
    } else {
      segments_.push_back(std::move(meta));
    }
  }
}

void Store::open_segment() {
  SegmentMeta meta;
  meta.seq = next_segment_seq_++;
  meta.name = seq_name(kWalPrefix, meta.seq);
  meta.bound.assign(process_count_, 0);
  segments_.push_back(std::move(meta));
  open_records_ = 0;
  unsynced_records_ = 0;
}

void Store::merge_bound(SegmentMeta& meta, std::span<const EventId> touches) {
  for (const EventId& id : touches) {
    meta.bound[id.process] = std::max(meta.bound[id.process], id.index);
  }
}

bool Store::bound_covered(const SegmentMeta& meta, const VectorClock& cut) {
  if (cut.size() == 0) return false;  // no durable snapshot yet
  for (ProcessId p = 0; p < meta.bound.size(); ++p) {
    if (meta.bound[p] == 0) continue;  // no reference to process p
    if (p >= cut.size() || meta.bound[p] >= cut[p]) return false;
  }
  return true;
}

void Store::append(std::span<const std::uint8_t> body,
                   std::span<const EventId> touches) {
  for (const EventId& id : touches) {
    SYNCON_REQUIRE(id.process < process_count_,
                   "WAL record touches a process outside the store");
  }
  std::vector<std::uint8_t> payload;
  payload.reserve(body.size() + 4 * touches.size() + 4);
  encode_varint(touches.size(), payload);
  for (const EventId& id : touches) {
    encode_varint(id.process, payload);
    encode_varint(id.index, payload);
  }
  payload.insert(payload.end(), body.begin(), body.end());

  std::vector<std::uint8_t> frame;
  append_frame(payload, frame);

  SegmentMeta& open = segments_.back();
  storage_.append(open.name, frame);
  merge_bound(open, touches);
  ++open_records_;
  ++unsynced_records_;
  ++records_appended_;
  bytes_appended_ += frame.size();
  if (obs::enabled()) {
    records_counter().add();
    bytes_counter().add(frame.size());
  }
  if (unsynced_records_ >= policy_.sync_every) sync();
  if (open_records_ >= policy_.segment_records) rotate();
}

void Store::sync() {
  const SegmentMeta& open = segments_.back();
  // A segment object is created by its first append; before that there is
  // nothing to make durable.
  if (open_records_ > 0) {
    storage_.sync(open.name);
    ++syncs_;
    if (obs::enabled()) fsync_counter().add();
    obs::flight(obs::FlightKind::kWalSync, obs::FlightRecord::kNoProcess,
                unsynced_records_, bytes_appended_);
  }
  unsynced_records_ = 0;
}

void Store::rotate() {
  // Rotation invariant: a segment is always durable when it closes, so the
  // open segment is the only one a crash can lose or tear.
  sync();
  open_segment();
  obs::flight(obs::FlightKind::kWalRotate, obs::FlightRecord::kNoProcess,
              segments_.back().seq);
}

void Store::write_snapshot(const RetentionCheckpoint& checkpoint) {
  // Log-before-checkpoint: the snapshot's cut vouches for (and forgives)
  // state derived from every record written so far, so those records must
  // be durable first — a snapshot that outlives an unsynced record it
  // reflects would suppress its replay as a duplicate after recovery.
  sync();
  const std::vector<std::uint8_t> bytes = encode_snapshot(checkpoint);
  const std::string name = seq_name(kSnapPrefix, next_snapshot_seq_++);
  storage_.append(name, bytes);
  storage_.sync(name);
  ++syncs_;
  ++snapshots_written_;
  snapshot_files_.push_back(name);
  durable_cut_ = checkpoint.cut;
  if (obs::enabled()) {
    fsync_counter().add();
    snapshot_counter().add();
  }
  obs::flight(obs::FlightKind::kSnapshot, obs::FlightRecord::kNoProcess,
              checkpoint.sequence);
  prune();
  // Keep the newest two snapshots: the newest may be the one torn by the
  // next crash, and its predecessor is the fallback.
  while (snapshot_files_.size() > 2) {
    storage_.remove(snapshot_files_.front());
    snapshot_files_.erase(snapshot_files_.begin());
  }
}

void Store::prune() {
  // Front-contiguous only: stop at the first segment that is still open or
  // reaches past the durable cut. Holes in the retained sequence would be
  // indistinguishable from crash loss during recovery.
  while (segments_.size() > 1 &&
         bound_covered(segments_.front(), durable_cut_)) {
    storage_.remove(segments_.front().name);
    segments_.pop_front();
    ++segments_pruned_;
    if (obs::enabled()) pruned_counter().add();
  }
}

}  // namespace syncon
