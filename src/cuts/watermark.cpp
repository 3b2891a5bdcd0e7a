#include "cuts/watermark.hpp"

#include <algorithm>
#include <string>

#include "support/contracts.hpp"

namespace syncon {

RetentionCheckpoint RetentionCheckpoint::bottom(std::size_t process_count) {
  SYNCON_REQUIRE(process_count > 0, "checkpoint needs at least one process");
  RetentionCheckpoint cp;
  cp.cut = VectorClock(process_count, 1);  // |C ∩ E_p| = 1: just ⊥_p
  cp.surface_times.assign(process_count, -1);
  cp.surface_clocks.reserve(process_count);
  for (std::size_t p = 0; p < process_count; ++p) {
    VectorClock c(process_count, 0);
    c.set(p, 1);  // T(⊥_p)
    cp.surface_clocks.push_back(std::move(c));
  }
  return cp;
}

VectorClock low_watermark(std::span<const VectorClock> bounds) {
  SYNCON_REQUIRE(!bounds.empty(),
                 "low watermark of zero consumer bounds is undefined");
  VectorClock out = bounds.front();
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    SYNCON_REQUIRE(bounds[i].size() == out.size(),
                   "consumer bound " + std::to_string(i) + " has " +
                       std::to_string(bounds[i].size()) +
                       " components; expected " + std::to_string(out.size()));
    out.merge_min(bounds[i]);
  }
  return out;
}

ClockValue watermark_lag(const VectorClock& cut, const VectorClock& frontier) {
  SYNCON_REQUIRE(cut.size() == frontier.size(),
                 "cut and frontier cover different process counts");
  ClockValue lag = 0;
  for (std::size_t p = 0; p < cut.size(); ++p) {
    SYNCON_REQUIRE(cut[p] <= frontier[p],
                   "watermark cut runs ahead of the frontier at process " +
                       std::to_string(p));
    lag = std::max(lag, frontier[p] - cut[p]);
  }
  return lag;
}

}  // namespace syncon
