#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <map>

namespace syncon::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                            epoch)
          .count());
}

std::uint32_t current_thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

std::vector<SpanStats> aggregate_spans(const FlightRecorder& ring) {
  std::map<std::string, SpanStats> by_name;
  for (const FlightRecord& r : ring.dump()) {
    if (r.kind != FlightKind::kSpan) continue;
    const std::uint64_t duration_us = r.t_us - r.b;
    SpanStats& s = by_name[span_name(r)];
    if (s.count == 0) s.name = span_name(r);
    ++s.count;
    s.total_us += duration_us;
    s.max_us = std::max(s.max_us, duration_us);
  }
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (auto& [name, stats] : by_name) out.push_back(std::move(stats));
  return out;
}

}  // namespace syncon::obs
