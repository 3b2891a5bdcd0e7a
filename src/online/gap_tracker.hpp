// Receiver-side loss accounting for the fault-tolerant online stack
// (DESIGN.md §3.7): a receiver keeps, per peer, which of the peer's events
// it has *witnessed* directly (their message or event report arrived) and
// which it merely knows happened because some piggybacked vector clock
// vouched for them (*claimed*). An event that is claimed but never
// witnessed is a lost predecessor — the causal-gap signal that turns
// "silently evaluate on corrupted state" into "report a pending gap and
// request retransmission".
//
// The structure is the classical contiguous-prefix + out-of-order-set form
// (cf. selective acknowledgment): witnessing is idempotent, reordered
// arrivals are absorbed, and missing() enumerates the exact holes. The set
// is one sorted array per peer, not a node per entry: a receiver that only
// sees a peer's sends keeps every one of them out of order.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "model/types.hpp"
#include "model/vector_clock.hpp"

namespace syncon {

/// The events a receiver wants retransmitted (served from the sender's or
/// the authoritative system's log via OnlineSystem::serve).
struct RetransmitRequest {
  std::vector<EventId> events;  // sorted by (process, index)
  bool empty() const { return events.empty(); }
};

class GapTracker {
 public:
  explicit GapTracker(std::size_t process_count);

  std::size_t process_count() const { return peers_.size(); }

  /// Marks e as directly witnessed (its message/report arrived). Idempotent:
  /// returns false if e had already been witnessed.
  bool witness(EventId e);
  bool witnessed(EventId e) const;

  /// A piggybacked clock vouches for its causal past: component q of value
  /// c means events (q, 1..c-1) happened before the carrier (the clock
  /// convention counts the dummy, so c = 1 + greatest real index).
  void claim(const VectorClock& clock);
  /// Vouches for events (q, 1 .. up_to).
  void claim(ProcessId q, EventIndex up_to);

  /// Claimed-but-never-witnessed events, sorted: the known-lost
  /// predecessors. Empty iff the local history explains every clock seen.
  /// `limit` bounds the enumeration — after a long outage the full hole set
  /// can run to millions of events, and a resync wants to request (and
  /// allocate) them in chunks, not all at once. Only events at or after
  /// `from` in (process, index) order are listed, so a resync can move on
  /// past a chunk. A non-empty `upto` (one entry per process) lists only
  /// events (q, i) with i ≤ upto[q]: the ones a log that executed upto[q]
  /// events of q can serve.
  std::vector<EventId> missing(
      std::size_t limit = std::numeric_limits<std::size_t>::max(),
      EventId from = {0, 0}, std::span<const EventIndex> upto = {}) const;
  /// Exact |missing(max, {0, 0}, upto)| without materializing it (cheap:
  /// O(|P| + reordered arrivals), not O(holes)).
  std::size_t missing_count(std::span<const EventIndex> upto = {}) const;
  bool has_gap() const;
  /// True iff some event of q is claimed but not witnessed.
  bool gap_on(ProcessId q) const;

  /// Length of the witnessed contiguous prefix of q: every event
  /// (q, 1 .. contiguous_prefix(q)) has been witnessed. This is q's
  /// component of the consumer's retention bound (cuts/watermark.hpp):
  /// nothing at or below the prefix can ever appear in missing().
  EventIndex contiguous_prefix(ProcessId q) const;

  /// Adopts a retention checkpoint: treats events (q, 1 .. up_to) as
  /// witnessed even if their reports never arrived — their log entries were
  /// reclaimed, so the holes below the checkpoint cut can never be served
  /// and must stop counting as gaps. Witnessed(e) answers true for forgiven
  /// events; witnessed_count() only counts reports that really arrived.
  void forgive(ProcessId q, EventIndex up_to);

  /// Distinct events witnessed so far.
  std::size_t witnessed_count() const { return witnessed_total_; }

  /// Retransmit request covering missing(limit) — chunk the recovery of a
  /// large gap by calling this repeatedly as replies are folded in.
  RetransmitRequest resync_request(
      std::size_t limit = std::numeric_limits<std::size_t>::max()) const {
    return {missing(limit)};
  }

 private:
  struct Peer {
    EventIndex contiguous = 0;  // all of 1..contiguous witnessed
    // Witnessed beyond the contiguous prefix: ahead[head..], sorted. The
    // absorbed entries before head go once they are as many as the rest,
    // so absorbing costs amortized O(1) per entry.
    std::vector<EventIndex> ahead;
    std::size_t head = 0;
    EventIndex claimed = 0;  // highest index any clock vouched for

    std::span<const EventIndex> pending() const {
      return std::span<const EventIndex>(ahead).subspan(head);
    }
    bool pending_has(EventIndex i) const;
    // The last index missing() may list for this peer under `upto`.
    EventIndex last(std::span<const EventIndex> upto, ProcessId q) const {
      return upto.empty() ? claimed : std::min(claimed, upto[q]);
    }
    // Extends the prefix over the pending entries it reaches.
    void absorb();
  };
  std::vector<Peer> peers_;
  std::size_t witnessed_total_ = 0;
};

}  // namespace syncon
