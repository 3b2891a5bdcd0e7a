#include "nonatomic/interval.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace syncon {

const char* to_string(ProxyKind kind) {
  return kind == ProxyKind::Begin ? "L" : "U";
}

NonatomicEvent::NonatomicEvent(const Execution& exec,
                               std::vector<EventId> events, std::string label)
    : exec_(&exec), label_(std::move(label)), events_(std::move(events)) {
  SYNCON_REQUIRE(!events_.empty(), "a nonatomic event is a non-empty set");
  std::sort(events_.begin(), events_.end());
  events_.erase(std::unique(events_.begin(), events_.end()), events_.end());
  for (const EventId& e : events_) {
    SYNCON_REQUIRE(exec.is_real(e),
                   "nonatomic events contain real (non-dummy) events only");
  }
  // events_ is sorted by (process, index): per-node spans are contiguous.
  for (std::size_t i = 0; i < events_.size();) {
    const ProcessId p = events_[i].process;
    std::size_t j = i;
    while (j < events_.size() && events_[j].process == p) ++j;
    nodes_.push_back(p);
    spans_.push_back(NodeSpan{p, events_[i].index, events_[j - 1].index});
    i = j;
  }
}

bool NonatomicEvent::contains(EventId e) const {
  return std::binary_search(events_.begin(), events_.end(), e);
}

bool NonatomicEvent::occurs_on(ProcessId p) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), p);
}

const NonatomicEvent::NodeSpan& NonatomicEvent::span_of(ProcessId p) const {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), p);
  SYNCON_REQUIRE(it != nodes_.end() && *it == p,
                 "event has no component on this process");
  return spans_[static_cast<std::size_t>(it - nodes_.begin())];
}

EventId NonatomicEvent::least_on(ProcessId p) const {
  return EventId{p, span_of(p).least};
}

EventId NonatomicEvent::greatest_on(ProcessId p) const {
  return EventId{p, span_of(p).greatest};
}

NonatomicEvent NonatomicEvent::proxy_per_node(ProxyKind kind) const {
  const EventIndex NodeSpan::*end = proxy_end(kind);
  std::vector<EventId> proxy;
  proxy.reserve(nodes_.size());
  for (const NodeSpan& s : spans_) proxy.push_back(EventId{s.process, s.*end});
  std::string name = label_.empty() ? std::string("X") : label_;
  return NonatomicEvent(*exec_, std::move(proxy),
                        std::string(to_string(kind)) + "(" + name + ")");
}

std::optional<NonatomicEvent> NonatomicEvent::proxy_global(
    ProxyKind kind, const Timestamps& ts) const {
  SYNCON_REQUIRE(&ts.execution() == exec_,
                 "timestamps belong to a different execution");
  // Only the per-node extrema can be global extrema; check each against
  // every other extremum (an event ⪯ all per-node least events is ⪯ all X).
  const EventIndex NodeSpan::*end = proxy_end(kind);
  std::vector<EventId> result;
  for (const NodeSpan& s : spans_) {
    const EventId candidate{s.process, s.*end};
    bool extremal = true;
    for (const NodeSpan& other : spans_) {
      const EventId bound{other.process, other.*end};
      const bool ok = kind == ProxyKind::Begin ? ts.leq(candidate, bound)
                                               : ts.leq(bound, candidate);
      if (!ok) {
        extremal = false;
        break;
      }
    }
    if (extremal) result.push_back(candidate);
  }
  if (result.empty()) return std::nullopt;
  std::string name = label_.empty() ? std::string("X") : label_;
  return NonatomicEvent(*exec_, std::move(result),
                        std::string(to_string(kind)) + "3(" + name + ")");
}

}  // namespace syncon
