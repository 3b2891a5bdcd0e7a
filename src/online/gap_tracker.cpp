#include "online/gap_tracker.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace syncon {

bool GapTracker::Peer::pending_has(EventIndex i) const {
  const std::span<const EventIndex> p = pending();
  return std::binary_search(p.begin(), p.end(), i);
}

void GapTracker::Peer::absorb() {
  while (head < ahead.size() && ahead[head] <= contiguous + 1) {
    contiguous = std::max(contiguous, ahead[head]);
    ++head;
  }
  if (head >= ahead.size() - head) {
    ahead.erase(ahead.begin(),
                ahead.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

GapTracker::GapTracker(std::size_t process_count) : peers_(process_count) {
  SYNCON_REQUIRE(process_count > 0, "gap tracker needs at least one process");
}

bool GapTracker::witness(EventId e) {
  SYNCON_REQUIRE(e.process < peers_.size(),
                 "witnessed event of unknown process " +
                     std::to_string(e.process) + " (tracker covers " +
                     std::to_string(peers_.size()) + " processes)");
  SYNCON_REQUIRE(e.index >= 1, "real events have index >= 1");
  Peer& peer = peers_[e.process];
  if (e.index <= peer.contiguous) return false;  // duplicate
  const auto it = std::lower_bound(
      peer.ahead.begin() + static_cast<std::ptrdiff_t>(peer.head),
      peer.ahead.end(), e.index);
  if (it != peer.ahead.end() && *it == e.index) return false;  // duplicate
  if (e.index == peer.contiguous + 1) {
    // Absorb any out-of-order arrivals that are now contiguous.
    peer.contiguous = e.index;
    peer.absorb();
  } else {
    peer.ahead.insert(it, e.index);
  }
  ++witnessed_total_;
  return true;
}

bool GapTracker::witnessed(EventId e) const {
  SYNCON_REQUIRE(e.process < peers_.size(), "unknown process");
  const Peer& peer = peers_[e.process];
  return e.index >= 1 &&
         (e.index <= peer.contiguous || peer.pending_has(e.index));
}

void GapTracker::claim(const VectorClock& clock) {
  SYNCON_REQUIRE(clock.size() == peers_.size(),
                 "claimed clock has " + std::to_string(clock.size()) +
                     " components, tracker covers " +
                     std::to_string(peers_.size()) + " processes");
  for (ProcessId q = 0; q < peers_.size(); ++q) {
    if (clock[q] > 0) claim(q, clock[q] - 1);  // component counts the dummy
  }
}

void GapTracker::claim(ProcessId q, EventIndex up_to) {
  SYNCON_REQUIRE(q < peers_.size(), "claim for unknown process");
  peers_[q].claimed = std::max(peers_[q].claimed, up_to);
}

std::vector<EventId> GapTracker::missing(
    std::size_t limit, EventId from, std::span<const EventIndex> upto) const {
  SYNCON_REQUIRE(upto.empty() || upto.size() == peers_.size(),
                 "missing: upto needs one bound per process");
  std::vector<EventId> out;
  for (ProcessId q = from.process; q < peers_.size() && out.size() < limit;
       ++q) {
    const Peer& peer = peers_[q];
    const std::span<const EventIndex> ahead = peer.pending();
    EventIndex first = peer.contiguous + 1;
    if (q == from.process) first = std::max(first, from.index);
    auto it = std::lower_bound(ahead.begin(), ahead.end(), first);
    const EventIndex last = peer.last(upto, q);
    for (EventIndex i = first; i <= last; ++i) {
      while (it != ahead.end() && *it < i) ++it;
      if (it != ahead.end() && *it == i) continue;
      out.push_back(EventId{q, i});
      if (out.size() == limit) break;
    }
  }
  return out;
}

std::size_t GapTracker::missing_count(
    std::span<const EventIndex> upto) const {
  SYNCON_REQUIRE(upto.empty() || upto.size() == peers_.size(),
                 "missing_count: upto needs one bound per process");
  std::size_t holes = 0;
  for (ProcessId q = 0; q < peers_.size(); ++q) {
    const Peer& peer = peers_[q];
    const EventIndex last = peer.last(upto, q);
    if (last <= peer.contiguous) continue;
    // Every ahead entry is > contiguous by invariant; the ones <= last are
    // witnessed indices punched out of the range.
    const std::span<const EventIndex> ahead = peer.pending();
    const auto witnessed_in_range = static_cast<std::size_t>(
        std::upper_bound(ahead.begin(), ahead.end(), last) - ahead.begin());
    holes += (last - peer.contiguous) - witnessed_in_range;
  }
  return holes;
}

EventIndex GapTracker::contiguous_prefix(ProcessId q) const {
  SYNCON_REQUIRE(q < peers_.size(), "unknown process");
  return peers_[q].contiguous;
}

void GapTracker::forgive(ProcessId q, EventIndex up_to) {
  SYNCON_REQUIRE(q < peers_.size(), "forgive for unknown process");
  Peer& peer = peers_[q];
  if (up_to <= peer.contiguous) return;
  peer.contiguous = up_to;
  // Drop witnessed-ahead entries swallowed by the new prefix and absorb any
  // that became contiguous — exactly the witness() absorption step.
  peer.absorb();
}

bool GapTracker::has_gap() const {
  for (ProcessId q = 0; q < peers_.size(); ++q) {
    if (gap_on(q)) return true;
  }
  return false;
}

bool GapTracker::gap_on(ProcessId q) const {
  SYNCON_REQUIRE(q < peers_.size(), "unknown process");
  // If every witnessed index beyond the prefix were contiguous it would have
  // been absorbed, so claimed > contiguous implies a hole at contiguous + 1
  // unless the hole lies beyond everything claimed.
  return peers_[q].claimed > peers_[q].contiguous;
}

}  // namespace syncon
