// Nonatomic (poset) events — the paper's "intervals": non-empty sets of
// atomic events grouped into one application-level action, possibly spanning
// several processes (Section 1).
//
// Also implements the two proxy definitions:
//   Defn 2 — L_X / U_X as the per-node least / greatest events of X
//            (always non-empty, one event per node of N_X);
//   Defn 3 — L_X / U_X as the events that ⪯ / ⪰ *every* event of X
//            (may be empty for genuinely nonlinear X).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/execution.hpp"
#include "model/timestamps.hpp"
#include "model/types.hpp"

namespace syncon {

/// Which proxy of a nonatomic event: its beginning (L_X) or its end (U_X).
enum class ProxyKind { Begin, End };

const char* to_string(ProxyKind kind);

class NonatomicEvent {
 public:
  /// The event's component on one node: X ∩ E_process spans the indices
  /// least..greatest.
  struct NodeSpan {
    ProcessId process;
    EventIndex least;
    EventIndex greatest;
  };

  /// `events` must be non-empty, contain only real events of `exec`, and is
  /// deduplicated and sorted internally.
  NonatomicEvent(const Execution& exec, std::vector<EventId> events,
                 std::string label = {});

  const Execution& execution() const { return *exec_; }
  const std::string& label() const { return label_; }

  /// Component atomic events, sorted by (process, index).
  const std::vector<EventId>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool contains(EventId e) const;

  /// N_X (Defn 1): processes on which the event has a component, ascending.
  const std::vector<ProcessId>& node_set() const { return nodes_; }
  std::size_t node_count() const { return nodes_.size(); }
  bool occurs_on(ProcessId p) const;

  /// Least / greatest event of X ∩ E_p; requires p ∈ N_X.
  EventId least_on(ProcessId p) const;
  EventId greatest_on(ProcessId p) const;

  /// One span per node of N_X, ascending by process — the per-node extremes
  /// without a lookup per node.
  std::span<const NodeSpan> spans() const { return spans_; }

  /// Defn 2 proxy: one event per node of N_X (least for Begin, greatest for
  /// End). Its node set equals N_X.
  NonatomicEvent proxy_per_node(ProxyKind kind) const;

  /// Defn 3 proxy: events of X that ⪯ (Begin) / ⪰ (End) every event of X.
  /// Empty (nullopt) when X has no global extremum.
  std::optional<NonatomicEvent> proxy_global(ProxyKind kind,
                                             const Timestamps& ts) const;

 private:
  const NodeSpan& span_of(ProcessId p) const;

  const Execution* exec_;
  std::string label_;
  std::vector<EventId> events_;
  std::vector<ProcessId> nodes_;
  std::vector<NodeSpan> spans_;  // parallel to nodes_
};

/// The node-span member a Defn 2 proxy keeps: each node's least event for
/// L_X (Begin), its greatest for U_X (End). The proxy of kind k holds
/// EventId{s.process, s.*proxy_end(k)} for each span s, so code that reads
/// a proxy through its event's spans never builds it.
constexpr EventIndex NonatomicEvent::NodeSpan::*proxy_end(ProxyKind kind) {
  return kind == ProxyKind::Begin ? &NonatomicEvent::NodeSpan::least
                                  : &NonatomicEvent::NodeSpan::greatest;
}

}  // namespace syncon
