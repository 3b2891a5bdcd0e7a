// The sharded multi-tenant monitoring daemon core (DESIGN.md §3.15): N
// independent tenant sessions — each a replica OnlineSystem + feed-only
// OnlineMonitor (TenantSessionCore) — hosted behind the tenant wire codec.
//
// Concurrency model: submit() runs on the owner thread and only routes. It
// reads the envelope's length prefix and tenant varint (peek_route, no CRC)
// and appends the bytes to its shard's per-pump arena. pump() is a barrier:
// ThreadPool::parallel_for splits the shards into min(shards, T) contiguous
// blocks for a T-thread pool, shard s owning exactly the tenants with
// tenant_id % shards == s. The pool's placement is fixed — block 0 on the
// owner, block b ≥ 1 on worker b − 1 — so each shard, and with it each of
// its sessions, is drained by the same thread on every pump. The task does
// each frame's work once, in arrival order: the CRC check (peek_frame, the
// frame's only one), then with a journal the group commit of every clean
// frame, then decode (into the shard's one reused TenantOp) and apply. One
// tenant's frames are therefore always applied in order on one thread
// (delivery determinism survives the fan-out). The task resolves each run
// of one tenant's consecutive clean frames once — its session and its
// journal object name — so the journal lock covers only the backend calls.
// The arenas need no lock: submit and pump are owner-only, and the
// parallel_for join is the handoff. Between pumps the sessions are
// quiescent and the owner may read stats or publish metrics.
//
// Backpressure: a full shard arena rejects the submit (Admission::accepted
// = false, retry after the next pump) instead of buffering unboundedly —
// the caller keeps FIFO by not advancing that tenant's cursor.
//
// Retention: each session caches its live-log size, re-read by its shard
// task whenever it applies an op, and each shard keeps their sum. With a
// memory budget set, each shard task, after applying its frames, compacts
// its own laggiest sessions (largest live log first, tenant id breaking
// ties) at their monitors' retention pins until the shard holds at most its
// share of the budget — compaction never crosses what a resync or open
// action still needs, so verdicts are unaffected. The pass visits only the
// sessions with an op applied since their last compaction: any other one
// would reclaim nothing, since its pin and its log have not moved since
// then (or it has no log yet). The owner's only work after the join is
// O(shards): it sums the shards' pre-compaction live totals into the peak.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "service/tenant_codec.hpp"
#include "store/storage.hpp"
#include "support/thread_pool.hpp"

namespace syncon::service {

/// Hosted tenants (the smallest ids) publish_metrics() labels, three series
/// each: at most 3 · kMetricTenants per-tenant series exist at once.
inline constexpr std::size_t kMetricTenants = 64;

struct DaemonOptions {
  std::size_t shards = 8;
  /// Frames one shard holds between pumps before submits are rejected.
  std::size_t queue_capacity = 1024;
  /// Cap on live log events across every session (0 = unbounded), split
  /// into per-shard shares: budget / shards each, the remainder one event
  /// apiece to the lowest-numbered shards. Each shard task enforces its
  /// share after applying its frames, compacting its laggiest changed
  /// sessions first.
  std::size_t memory_budget_events = 0;
  /// Optional durable frame journal: each pump appends every CRC-clean
  /// frame to object "tenant-<id>" — one append per run of one tenant's
  /// consecutive frames — and syncs each tenant's object once, before it
  /// applies any of them; recover() rebuilds all sessions by replaying
  /// those objects. A frame is durable once the pump() that applies it
  /// returns, not when submit() accepts it: a crash in between loses the
  /// accepted-but-unpumped frames, which the caller still holds. The
  /// envelope doubles as the journal record format — it already carries
  /// the CRC framing. The daemon serializes every call into the backend
  /// (one lock per shard per pump, held only for the append and sync
  /// calls), so it need not be thread-safe.
  StorageBackend* journal = nullptr;
};

/// Outcome of one submit: rejected frames should be retried unchanged
/// after `retry_after_pumps` pump barriers (the queues drain every pump).
struct Admission {
  bool accepted = false;
  std::uint32_t retry_after_pumps = 0;
};

struct DaemonStats {
  std::size_t tenants = 0;
  std::uint64_t frames_applied = 0;
  /// Envelope-corrupt + unroutable + out-of-sequence + session-contract
  /// rejections, summed — every way a frame can fail without killing us.
  std::uint64_t frames_quarantined = 0;
  std::uint64_t rejected_submits = 0;
  std::uint64_t verdicts = 0;
  std::size_t live_log_events = 0;
  std::size_t live_log_peak = 0;
  std::uint64_t reclaimed_events = 0;
  std::uint64_t compactions = 0;
};

class MonitorDaemon {
 public:
  MonitorDaemon(const DaemonOptions& options, ThreadPool& pool);
  /// Drops the per-tenant gauges of every session still hosted.
  ~MonitorDaemon();

  MonitorDaemon(const MonitorDaemon&) = delete;
  MonitorDaemon& operator=(const MonitorDaemon&) = delete;

  /// Routes one complete envelope (owner thread only). A torn envelope is
  /// swallowed and quarantined (accepted — retrying cannot help); any other
  /// is queued on the shard its tenant varint names, or rejected when that
  /// shard is full. Its CRC is checked, and a corrupt frame quarantined,
  /// by that shard in the next pump().
  Admission submit(std::span<const std::uint8_t> frame);

  /// Checks, journals and applies every queued frame across all shards
  /// (barrier); each shard then compacts to its share of the memory budget.
  /// Owner thread only. If the journal throws, the throwing shard applies
  /// and compacts nothing this pump while the others apply and compact as
  /// usual, every shard's queue is emptied, and the first failure, in
  /// shard order, is rethrown once all shards finish.
  void pump();

  /// Replays the journal into fresh sessions (construct-time crash
  /// recovery), truncating each object at its first torn or corrupt frame.
  /// Requires a journal and no frames submitted yet.
  void recover();

  /// Aggregate counters; call between pumps.
  DaemonStats stats() const;

  /// The hosted session, or nullptr — identity checks read verdicts here.
  const TenantSessionCore* session(std::uint64_t tenant) const;

  /// Definite verdict log of one tenant (empty for unknown tenants).
  std::vector<std::string> verdicts(std::uint64_t tenant) const;

  /// Drops a finished tenant's session, its journal object (if any) and
  /// its per-tenant gauges.
  void release(std::uint64_t tenant);

  /// Publishes aggregate gauges into MetricRegistry::global(), and
  /// per-tenant gauges for the kMetricTenants smallest hosted tenant ids.
  void publish_metrics() const;

 private:
  struct TenantSession {
    TenantSession(std::size_t processes, std::size_t resync_chunk,
                  std::uint64_t hello_seq)
        : core(processes, resync_chunk), decoder(processes, hello_seq) {}
    TenantSessionCore core;
    TenantStreamDecoder decoder;
    std::uint64_t quarantined_frames = 0;
    /// core.system().live_log_events() after the last op or compaction.
    std::size_t live = 0;
    /// An op was applied since the last compact_at_pin (the session is then
    /// listed in its shard's `changed`).
    bool changed = false;
  };

  /// A maximal run of one tenant's consecutive CRC-clean frames in a
  /// shard's arena, resolved once per pump by the shard task.
  struct Run {
    std::uint64_t tenant;
    std::size_t first;  // frames [first, end)
    std::size_t end;
    /// nullptr while the tenant has no session (its hello is in this pump,
    /// or it sent frames before one).
    TenantSession* session;
    /// With a journal, the name of the tenant's journal object.
    std::string object;
  };

  struct Shard {
    // Frames routed here since the last pump, back to back: frame i is
    // arena[ends[i-1], ends[i]). Filled by submit(), emptied (capacity
    // kept) by this shard's pump task.
    std::vector<std::uint8_t> arena;
    std::vector<std::size_t> ends;
    std::vector<std::uint64_t> enqueued_us;  // per frame; 0 = telemetry off
    // The shard task's parse of each frame (frame_size 0 = quarantined),
    // its runs, and one run per tenant in ascending tenant id (the syncs);
    // rebuilt by every pump, read only during it.
    std::vector<FrameView> views;
    std::vector<Run> runs;
    std::vector<const Run*> syncs;
    // Every frame's decode target, reset in place per frame: a clean event
    // or report frame decodes without allocating.
    TenantOp op;
    // Owned by this shard's task during pump(), by the owner between pumps
    // (the parallel_for barrier is the handoff). std::map: stats and
    // metrics see tenants in deterministic order.
    std::map<std::uint64_t, std::unique_ptr<TenantSession>> sessions;
    /// The sessions whose `changed` is set.
    std::vector<std::pair<std::uint64_t, TenantSession*>> changed;
    /// This shard's share of the memory budget (SIZE_MAX: no budget).
    std::size_t budget_share = 0;
    std::size_t live_log_events = 0;  // sum of the sessions' `live`
    /// live_log_events after this pump's frames, before its compaction.
    std::size_t applied_live = 0;
    std::uint64_t frames_applied = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t compactions = 0;
    std::uint64_t reclaimed_events = 0;
    /// This pump's journal failure; pump() rethrows the first, in shard
    /// order, after the join.
    std::exception_ptr failure;

    TenantSession* find(std::uint64_t tenant) const;
  };

  void drain(Shard& shard);
  void resolve_runs(Shard& shard);
  void journal(const Shard& shard);
  /// Applies one frame of `session`'s tenant (nullptr: none hosted yet; a
  /// hello sets it). Returns whether an op was applied.
  bool apply_frame(Shard& shard, TenantSession*& session,
                   const FrameView& view);
  static void compact_to_share(Shard& shard);
  static std::string journal_object(std::uint64_t tenant);

  DaemonOptions options_;
  ThreadPool& pool_;
  std::mutex journal_mutex_;  // serializes the shard tasks' journal calls
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t rejected_submits_ = 0;
  std::uint64_t corrupt_submits_ = 0;
  std::size_t live_log_peak_ = 0;
  bool any_submitted_ = false;
};

}  // namespace syncon::service
