#include "sim/interval_picker.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "support/contracts.hpp"

namespace syncon {

NonatomicEvent random_interval(const Execution& exec, Xoshiro256StarStar& rng,
                               const IntervalSpec& spec, std::string label) {
  SYNCON_REQUIRE(spec.node_count >= 1, "an interval spans at least one node");
  SYNCON_REQUIRE(spec.max_events_per_node >= 1,
                 "an interval has at least one event per spanned node");
  std::vector<ProcessId> candidates;
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    if (exec.real_count(p) > 0) candidates.push_back(p);
  }
  SYNCON_REQUIRE(!candidates.empty(),
                 "execution has no real events to build an interval from");
  const std::size_t span = std::min(spec.node_count, candidates.size());

  std::vector<EventId> events;
  for (const std::size_t c :
       rng.sample_without_replacement(candidates.size(), span)) {
    const ProcessId p = candidates[c];
    const EventIndex n = exec.real_count(p);
    const auto run =
        static_cast<EventIndex>(1 + rng.below(spec.max_events_per_node));
    const EventIndex len = std::min<EventIndex>(run, n);
    const auto start =
        static_cast<EventIndex>(1 + rng.below(n - len + 1));  // 1-based
    for (EventIndex k = 0; k < len; ++k) {
      events.push_back(EventId{p, static_cast<EventIndex>(start + k)});
    }
  }
  return NonatomicEvent(exec, std::move(events), std::move(label));
}

std::vector<NonatomicEvent> random_intervals(const Execution& exec,
                                             Xoshiro256StarStar& rng,
                                             const IntervalSpec& spec,
                                             std::size_t count) {
  std::vector<NonatomicEvent> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string label = "I";
    label += std::to_string(i);
    out.push_back(random_interval(exec, rng, spec, std::move(label)));
  }
  return out;
}

std::vector<NonatomicEvent> windowed_intervals(const Execution& exec,
                                               std::size_t width) {
  SYNCON_REQUIRE(width >= 1, "window width must be positive");
  EventIndex longest = 0;
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    longest = std::max(longest, exec.real_count(p));
  }
  std::vector<NonatomicEvent> out;
  for (std::size_t k = 0; k * width < longest; ++k) {
    std::vector<EventId> events;
    for (ProcessId p = 0; p < exec.process_count(); ++p) {
      const EventIndex n = exec.real_count(p);
      const auto lo = static_cast<EventIndex>(k * width + 1);
      const auto hi =
          std::min<EventIndex>(static_cast<EventIndex>((k + 1) * width), n);
      for (EventIndex i = lo; i <= hi && i >= lo; ++i) {
        events.push_back(EventId{p, i});
      }
    }
    if (!events.empty()) {
      std::string label = "W";
      label += std::to_string(k);
      out.emplace_back(exec, std::move(events), std::move(label));
    }
  }
  return out;
}

}  // namespace syncon
