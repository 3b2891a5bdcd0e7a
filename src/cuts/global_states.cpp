#include "cuts/global_states.hpp"

#include <queue>
#include <unordered_set>
#include <vector>

#include "support/contracts.hpp"

namespace syncon {

namespace {

struct CountsHash {
  std::size_t operator()(const std::vector<ClockValue>& v) const noexcept {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (const ClockValue c : v) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

// Can the cut with `counts` be extended by the next event of process p?
// The successor state is consistent iff every causal predecessor of that
// event is already inside the cut: T(next)[j] <= counts[j] for j != p.
bool can_advance(const Timestamps& ts, const std::vector<ClockValue>& counts,
                 ProcessId p, ClockValue limit_p) {
  const Execution& exec = ts.execution();
  const ClockValue next_index = counts[p];  // 0-based: counts[p] events held
  if (next_index + 1 > limit_p) return false;
  const EventId next{p, next_index};
  const VectorClock t = ts.forward(next);
  for (std::size_t j = 0; j < counts.size(); ++j) {
    if (j == p) continue;
    if (t[j] > counts[j]) return false;
  }
  (void)exec;
  return true;
}

// Generic BFS over the consistent-state lattice. `visit` may stop the walk;
// `expand` decides whether a state's successors are explored (used by
// definitely() to walk only ¬φ states).
std::size_t walk(const Timestamps& ts, const LatticeOptions& options,
                 const std::function<bool(const Cut&)>& visit,
                 const std::function<bool(const Cut&)>& expand) {
  const Execution& exec = ts.execution();
  const std::size_t p_count = exec.process_count();

  std::vector<ClockValue> limits(p_count);
  for (ProcessId p = 0; p < p_count; ++p) {
    limits[p] = options.include_final_dummies ? exec.total_count(p)
                                              : exec.total_count(p) - 1;
  }

  std::vector<ClockValue> bottom(p_count, 1);
  std::unordered_set<std::vector<ClockValue>, CountsHash> seen;
  std::queue<std::vector<ClockValue>> frontier;
  seen.insert(bottom);
  frontier.push(std::move(bottom));

  std::size_t visited = 0;
  while (!frontier.empty()) {
    std::vector<ClockValue> counts = std::move(frontier.front());
    frontier.pop();
    ++visited;
    SYNCON_REQUIRE(visited <= options.max_states,
                   "consistent-cut lattice exceeds the state budget");
    const Cut cut(exec, VectorClock(counts));
    if (!visit(cut)) return visited;
    if (!expand(cut)) continue;
    for (ProcessId p = 0; p < p_count; ++p) {
      if (!can_advance(ts, counts, p, limits[p])) continue;
      std::vector<ClockValue> next = counts;
      ++next[p];
      if (seen.insert(next).second) frontier.push(std::move(next));
    }
  }
  return visited;
}

}  // namespace

std::size_t for_each_consistent_cut(
    const Timestamps& ts, const std::function<bool(const Cut&)>& visit,
    const LatticeOptions& options) {
  return walk(ts, options, visit, [](const Cut&) { return true; });
}

std::size_t count_consistent_cuts(const Timestamps& ts,
                                  const LatticeOptions& options) {
  return for_each_consistent_cut(ts, [](const Cut&) { return true; },
                                 options);
}

bool possibly(const Timestamps& ts, const CutPredicate& predicate,
              const LatticeOptions& options) {
  bool found = false;
  for_each_consistent_cut(
      ts,
      [&](const Cut& cut) {
        if (predicate(cut)) {
          found = true;
          return false;  // stop the walk
        }
        return true;
      },
      options);
  return found;
}

bool definitely(const Timestamps& ts, const CutPredicate& predicate,
                const LatticeOptions& options) {
  // Definitely(φ) fails iff some maximal path avoids φ entirely: walk only
  // ¬φ states and see whether the final state is reachable.
  const Execution& exec = ts.execution();
  VectorClock top_counts(exec.process_count());
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    top_counts.set(p, options.include_final_dummies ? exec.total_count(p)
                                                    : exec.total_count(p) - 1);
  }
  bool top_reached_avoiding = false;
  walk(
      ts, options,
      [&](const Cut& cut) {
        if (!predicate(cut) && cut.counts() == top_counts) {
          top_reached_avoiding = true;
          return false;
        }
        return true;
      },
      [&](const Cut& cut) { return !predicate(cut); });
  return !top_reached_avoiding;
}

}  // namespace syncon
