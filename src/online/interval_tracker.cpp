#include "online/interval_tracker.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace syncon {

std::size_t IntervalSummary::node_slot(ProcessId p) const {
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), p);
  if (it == nodes.end() || *it != p) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - nodes.begin());
}

IntervalTracker::IntervalTracker(std::string label)
    : label_(std::move(label)) {}

namespace {

const VectorClock& owned(const VectorClock& clock) { return clock; }
VectorClock owned(const StampView& view) { return view.dense(); }

}  // namespace

void IntervalTracker::add(const OnlineSystem& system, EventId e) {
  fold(e, system.clock_of(e), system.time_of(e));  // clock_of validates e
}

void IntervalTracker::add(EventId e, const VectorClock& clock,
                          std::int64_t when) {
  fold(e, clock, when);
}

template <class Clock>
void IntervalTracker::fold(EventId e, const Clock& clock, std::int64_t when) {
  SYNCON_REQUIRE(e.index >= 1, "real events have index >= 1");
  SYNCON_REQUIRE(clock.size() > e.process,
                 "event's clock has no component for its own process");
  SYNCON_REQUIRE(process_count_ == 0 || process_count_ == clock.size(),
                 "events of one interval must come from one system");
  process_count_ = clock.size();
  ++event_count_;
  if (when == OnlineSystem::kNoTime) {
    all_timed_ = false;
  } else {
    start_time_ = start_time_ < 0 ? when : std::min(start_time_, when);
    end_time_ = std::max(end_time_, when);
  }
  auto it = std::lower_bound(
      per_node_.begin(), per_node_.end(), e.process,
      [](const NodeAgg& agg, ProcessId p) { return agg.process < p; });
  if (it == per_node_.end() || it->process != e.process) {
    NodeAgg agg;
    agg.process = e.process;
    agg.least = agg.greatest = e.index;
    agg.least_clock = agg.greatest_clock = owned(clock);
    per_node_.insert(it, std::move(agg));
    return;
  }
  SYNCON_REQUIRE(e.index != it->least && e.index != it->greatest,
                 "event added twice to one interval (deduplicate at-least-"
                 "once deliveries before folding)");
  // Out-of-order tolerant: only the per-node extremes matter, so an event
  // arriving late (or early) just competes for the least / greatest slot.
  if (e.index < it->least) {
    it->least = e.index;
    it->least_clock = owned(clock);
  } else if (e.index > it->greatest) {
    it->greatest = e.index;
    it->greatest_clock = owned(clock);
  }
}

std::vector<ProcessId> IntervalTracker::nodes() const {
  std::vector<ProcessId> out;
  out.reserve(per_node_.size());
  for (const NodeAgg& agg : per_node_) out.push_back(agg.process);
  return out;
}

void IntervalTracker::lower_to_least(VectorClock& pin) const {
  for (const NodeAgg& agg : per_node_) {
    pin.set(agg.process, std::min<ClockValue>(pin.at(agg.process), agg.least));
  }
}

IntervalSummary IntervalTracker::summary() const {
  SYNCON_REQUIRE(!per_node_.empty(), "summary of an empty interval");
  IntervalSummary s;
  s.label = label_;
  s.process_count = process_count_;
  s.event_count = event_count_;
  s.start_time = start_time_;
  s.end_time = end_time_;
  s.fully_timed = all_timed_ && start_time_ >= 0;
  const std::size_t n = per_node_.size();
  s.nodes.reserve(n);
  s.least_index.reserve(n);
  s.greatest_index.reserve(n);
  s.least_clock.reserve(n);
  s.greatest_clock.reserve(n);
  s.intersect_past = s.least_union_past = per_node_.front().least_clock;
  s.union_past = s.greatest_intersect_past = per_node_.front().greatest_clock;
  for (const NodeAgg& agg : per_node_) {
    s.nodes.push_back(agg.process);
    s.least_index.push_back(agg.least);
    s.greatest_index.push_back(agg.greatest);
    s.least_clock.push_back(agg.least_clock);
    s.greatest_clock.push_back(agg.greatest_clock);
    s.intersect_past.merge_min(agg.least_clock);
    s.least_union_past.merge_max(agg.least_clock);
    s.union_past.merge_max(agg.greatest_clock);
    s.greatest_intersect_past.merge_min(agg.greatest_clock);
  }
  return s;
}

}  // namespace syncon
