// Low-watermark cuts for bounded-memory retention (DESIGN.md §3.10).
//
// A cut timestamp (Defn 15) is a per-process event count, and Lemma 16 says
// the intersection of cuts is the componentwise min of their timestamps —
// so the componentwise minimum of "what every consumer has witnessed as a
// contiguous prefix" is itself a cut: the *low-watermark cut*. Every event
// strictly inside it has been witnessed by every consumer that could ever
// ask for it again, so its log entry can be reclaimed without changing any
// future `<<` probe, resync reply, or Definite/PendingGap verdict.
//
// What survives a compaction is a RetentionCheckpoint: the cut's timestamp
// plus, per process, the authoritative clock (and physical time) of the
// cut's surface event (Defn 6). A retransmit request that crosses the
// watermark is answered from the checkpoint — the surface report vouches
// for everything inside the cut — instead of aborting on a missing log
// entry (OnlineSystem::wire_of / serve).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/types.hpp"
#include "model/vector_clock.hpp"

namespace syncon {

/// What a compaction leaves behind for the reclaimed prefix of the log.
struct RetentionCheckpoint {
  /// Timestamp of the low-watermark cut, counts form (Defn 15): component p
  /// counts the dummy, so events (p, 1 .. cut[p]-1) are inside the cut and
  /// their log entries have been reclaimed.
  VectorClock cut;
  /// Per process: T of the cut's surface event (p, cut[p]-1) — the clock of
  /// ⊥_p when nothing of p was reclaimed. A retransmit request for a
  /// reclaimed event is answered with this surface report, whose clock
  /// vouches for every event inside the cut on that process.
  std::vector<VectorClock> surface_clocks;
  /// Physical time of each surface event (-1 = unstamped / nothing
  /// reclaimed, the OnlineSystem::kNoTime convention).
  std::vector<std::int64_t> surface_times;
  /// Compactions recorded so far (0 = the bottom checkpoint).
  std::uint64_t sequence = 0;
  /// Log entries reclaimed across all compactions.
  std::uint64_t reclaimed_total = 0;

  /// The checkpoint of the bottom cut E^⊥: nothing reclaimed yet.
  static RetentionCheckpoint bottom(std::size_t process_count);
};

/// Componentwise minimum of cut timestamps — by Lemma 16 the timestamp of
/// the intersection cut, i.e. the low watermark of the given consumer
/// bounds. Requires at least one bound; all must have the same size.
VectorClock low_watermark(std::span<const VectorClock> bounds);

/// How far each process's frontier runs ahead of the cut: the maximum over
/// p of frontier[p] - cut[p] (both counts form; 0 when the cut is the
/// frontier). This is the "watermark lag" gauge of DESIGN.md §3.10.
ClockValue watermark_lag(const VectorClock& cut, const VectorClock& frontier);

}  // namespace syncon
