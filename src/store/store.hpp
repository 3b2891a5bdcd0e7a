// The durability core (DESIGN.md §3.12): an append-only write-ahead log of
// CRC-framed records split across rotating segments, plus durable snapshot
// files, over a StorageBackend.
//
// Layout:
//   wal-<seq>    CRC-framed records (store/wal.hpp). Each record carries a
//                small retention header (the event ids it references) so
//                the Store can prune without understanding the consumer's
//                record format. Closed segments are synced
//                at rotation, so the only segment that can be lost or torn
//                by a crash is the open one.
//   snap-<seq>   a serialized SnapshotImage (store/snapshot.hpp). The two
//                newest are retained so a snapshot torn by a crash falls
//                back to its predecessor.
//
// Retention invariant: a segment is pruned only when a *durable* snapshot's
// cut covers every event id any of its records references — everything a
// pruned record could tell recovery is already told by the snapshot.
// Pruning is front-contiguous, so the retained segment sequence has no
// holes below a live segment and recovery can treat any sequence gap after
// a corrupt frame as loss, not pruning.
//
// Recovery (runs in the constructor when the storage is non-empty): load
// the newest CRC-valid snapshot (falling back across torn ones), then scan
// the retained segments in order, stopping at the first invalid frame — the
// truncation rule: the torn segment is cut back to its last valid frame and
// every later segment is dropped, because an append-only log says nothing
// trustworthy past its first corruption. The surviving record bodies are
// handed to the consumer (store/durable.hpp) for replay.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/types.hpp"
#include "store/snapshot.hpp"
#include "store/storage.hpp"

namespace syncon {

/// How aggressively the WAL trades write latency for crash-window size.
struct DurabilityPolicy {
  /// sync() the open segment after every N appended records (1 = every
  /// record durable immediately; larger N batches fsyncs and accepts losing
  /// up to N-1 records on a crash — recovered via the normal resync path).
  std::uint32_t sync_every = 1;
  /// Rotate to a fresh segment after N records (the pruning granule).
  std::uint32_t segment_records = 256;
  /// Absolute-escape interval of the record clock codec (LinkEncoder): every
  /// N-th record carries its clock absolutely, bounding how much chained
  /// delta state a reader must accumulate. Encoders reset at segment
  /// boundaries, so every segment is independently decodable.
  std::uint32_t full_interval = 16;
};

class Store {
 public:
  /// One surviving WAL record, in append order. `segment` changes exactly
  /// where the writer rotated (and reset its clock codec).
  struct RecoveredRecord {
    std::uint64_t segment = 0;
    std::vector<std::uint8_t> body;
  };

  /// What the opening scan found.
  struct RecoveryInfo {
    std::optional<SnapshotImage> snapshot;  // newest CRC-valid snapshot
    std::size_t snapshots_discarded = 0;    // torn/corrupt snapshots skipped
    std::size_t segments_scanned = 0;
    std::size_t records = 0;
    bool truncated = false;  // an invalid frame cut the scan short
    std::size_t truncated_bytes = 0;   // bytes discarded from the torn tail
    std::size_t dropped_segments = 0;  // segments past the first corruption
  };

  /// Opens (and, if the backend holds prior state, recovers) a store whose
  /// records reference events of `process_count` processes. A recovered
  /// retention header naming a process at or above the count, or a field
  /// wider than 32 bits, is a malformed frame: recovery truncates there.
  Store(StorageBackend& storage, std::size_t process_count,
        DurabilityPolicy policy = {});

  const DurabilityPolicy& policy() const { return policy_; }
  const RecoveryInfo& recovery() const { return recovery_; }
  /// The surviving records, consumed once by the owner's replay.
  std::vector<RecoveredRecord> take_records();

  /// Sequence number of the segment the next append lands in — writers key
  /// their per-segment codec resets on this (store/durable.hpp).
  std::uint64_t open_segment_seq() const { return segments_.back().seq; }

  /// Appends one record. `touches` lists every event id the record
  /// references (for the pruning bound), each on a process below the
  /// store's count.
  void append(std::span<const std::uint8_t> body,
              std::span<const EventId> touches);

  /// Forces the open segment durable regardless of sync_every.
  void sync();

  /// Writes a durable snapshot, then prunes every leading segment whose
  /// records all fall inside the snapshot cut, and garbage-collects
  /// all but the two newest snapshot files.
  void write_snapshot(const SnapshotImage& image);

  /// Cut of the newest durable snapshot (empty clock before any).
  const VectorClock& durable_cut() const { return durable_cut_; }

  std::size_t live_segments() const { return segments_.size(); }
  std::uint64_t records_appended() const { return records_appended_; }
  std::uint64_t wal_bytes_appended() const { return bytes_appended_; }
  std::uint64_t syncs() const { return syncs_; }
  std::uint64_t segments_pruned() const { return segments_pruned_; }
  std::uint64_t snapshots_written() const { return snapshots_written_; }

 private:
  struct SegmentMeta {
    std::uint64_t seq = 0;
    std::string name;
    // Max referenced event index per process (0 = none), one entry per
    // process — prunable once the durable cut covers them all.
    std::vector<EventIndex> bound;
    std::size_t records = 0;
  };

  void scan_existing();
  void open_segment();
  void rotate();
  void prune();
  static void merge_bound(SegmentMeta& meta, std::span<const EventId> touches);
  static bool bound_covered(const SegmentMeta& meta, const VectorClock& cut);

  StorageBackend& storage_;
  std::size_t process_count_;
  DurabilityPolicy policy_;
  RecoveryInfo recovery_;
  std::vector<RecoveredRecord> recovered_records_;

  std::deque<SegmentMeta> segments_;  // oldest first; back() is open
  std::uint64_t next_segment_seq_ = 0;
  std::uint64_t next_snapshot_seq_ = 0;
  std::vector<std::string> snapshot_files_;  // sorted, oldest first
  VectorClock durable_cut_;
  std::size_t open_records_ = 0;
  std::uint32_t unsynced_records_ = 0;

  std::uint64_t records_appended_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t segments_pruned_ = 0;
  std::uint64_t snapshots_written_ = 0;
};

}  // namespace syncon
