// Online accumulation of a nonatomic event: as the application executes the
// component events of a high-level action, the tracker folds their
// timestamps into exactly the aggregates the relation tests need — node
// set, per-node extreme indices and clocks, and, once the action completes,
// the past cut timestamps of both Defn 2 proxies (Table 2).
//
// Everything here is derivable from the events' own (past) timestamps, so
// it is available the moment the interval completes — no post-processing
// pass over the trace. The summary computes each proxy cut once (Key Idea
// 1); evaluation then reads a proxy through a borrowed ProxyView and copies
// nothing.
#pragma once

#include <string>
#include <vector>

#include "model/types.hpp"
#include "model/vector_clock.hpp"
#include "nonatomic/interval.hpp"
#include "online/online_system.hpp"

namespace syncon {

/// The completed aggregate of one online-tracked interval.
struct IntervalSummary {
  std::string label;
  std::size_t process_count = 0;
  std::size_t event_count = 0;

  /// Sorted node set N_X.
  std::vector<ProcessId> nodes;
  /// Parallel to `nodes`: index of the least / greatest component event on
  /// that node, and their full clocks.
  std::vector<EventIndex> least_index;
  std::vector<EventIndex> greatest_index;
  std::vector<VectorClock> least_clock;
  std::vector<VectorClock> greatest_clock;

  /// The past cut timestamps of the two Defn 2 proxies, exact. L_X keeps the
  /// per-node least events, U_X the greatest.
  ///   T(∩⇓X) = T(∩⇓L_X): the min over the least clocks;
  ///   T(∪⇓X) = T(∪⇓U_X): the max over the greatest clocks;
  ///   T(∪⇓L_X): the max over the least clocks;
  ///   T(∩⇓U_X): the min over the greatest clocks.
  VectorClock intersect_past;
  VectorClock union_past;
  VectorClock least_union_past;
  VectorClock greatest_intersect_past;

  /// Physical span of the interval when every component event was stamped
  /// with a time (OnlineSystem::kNoTime markers otherwise).
  std::int64_t start_time = -1;
  std::int64_t end_time = -1;
  bool fully_timed = false;

  std::size_t node_count() const { return nodes.size(); }
  /// Position of process p within `nodes`, or npos.
  std::size_t node_slot(ProcessId p) const;
};

/// A Defn 2 proxy of a summary, read in place: the proxy keeps one event per
/// node (the least for Begin, the greatest for End), so each node slot has
/// one index and one clock, and the proxy's two past cuts are two of the
/// summary's four. Borrows the summary; copies nothing.
struct ProxyView {
  ProxyView(const IntervalSummary& s, ProxyKind kind)
      : nodes(s.nodes),
        index(kind == ProxyKind::Begin ? s.least_index : s.greatest_index),
        clock(kind == ProxyKind::Begin ? s.least_clock : s.greatest_clock),
        intersect_past(kind == ProxyKind::Begin ? s.intersect_past
                                                : s.greatest_intersect_past),
        union_past(kind == ProxyKind::Begin ? s.least_union_past
                                            : s.union_past) {}

  const std::vector<ProcessId>& nodes;
  /// Parallel to `nodes`: the proxy's event on that node.
  const std::vector<EventIndex>& index;
  const std::vector<VectorClock>& clock;
  /// T(∩⇓X̂) and T(∪⇓X̂) of the proxy X̂.
  const VectorClock& intersect_past;
  const VectorClock& union_past;
};

class IntervalTracker {
 public:
  explicit IntervalTracker(std::string label);

  /// Folds one component event in, reading its clock and physical time from
  /// the (authoritative) running system.
  ///
  /// Fault tolerance: events of one process may be added in ANY order — the
  /// natural online order is not required, so a monitor fed over a lossy,
  /// reordering channel can fold reports in as they arrive. Each event must
  /// be added at most once; callers on at-least-once transports deduplicate
  /// first (OnlineMonitor::observe does, via its GapTracker).
  void add(const OnlineSystem& system, EventId e);

  /// Same, from the event's wire report instead of the shared system — the
  /// form a monitor deployed behind a lossy channel uses (it may never see
  /// the authoritative system at all). `when` is the event's physical time
  /// if the report carried one.
  void add(EventId e, const VectorClock& clock,
           std::int64_t when = /* OnlineSystem::kNoTime */ -1);

  bool empty() const { return per_node_.empty(); }
  std::size_t event_count() const { return event_count_; }
  /// Processes with at least one folded component event, sorted.
  std::vector<ProcessId> nodes() const;
  /// Lowers pin[q] to the least folded index on each node q — the
  /// open-interval references that pin a retention watermark
  /// (OnlineMonitor::watermark_pin, DESIGN.md §3.10).
  void lower_to_least(VectorClock& pin) const;

  /// Finalizes the aggregates, the four proxy past cuts included. The
  /// tracker may keep accumulating afterwards; summary() just snapshots the
  /// current state.
  IntervalSummary summary() const;

 private:
  // add()'s body, for a dense clock or a logged StampView: a view is
  // densified only where it becomes a node's least or greatest clock.
  template <class Clock>
  void fold(EventId e, const Clock& clock, std::int64_t when);

  struct NodeAgg {
    ProcessId process;
    EventIndex least = 0;
    EventIndex greatest = 0;
    VectorClock least_clock;
    VectorClock greatest_clock;
  };

  std::string label_;
  std::vector<NodeAgg> per_node_;  // sorted by process id
  std::size_t process_count_ = 0;
  std::size_t event_count_ = 0;
  std::int64_t start_time_ = -1;
  std::int64_t end_time_ = -1;
  bool all_timed_ = true;
};

}  // namespace syncon
