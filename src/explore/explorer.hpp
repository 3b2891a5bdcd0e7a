// Exhaustive schedule enumeration, one schedule per poset (DESIGN.md §3.14).
//
// A schedule's happens-before poset is fixed by its binding: which receive
// op each message lands in. The explorer therefore enumerates bindings, not
// delivery words. It assigns the messages, destination-major, to receive
// ops of their destination that still have arity left; messages with the
// same source op and destination (identical messages) take non-decreasing
// ops, so each multiset binding appears once; and a choice is rejected when
// the receive op already reaches the message's source through program order
// and the messages bound so far. Acyclicity is the only realizability
// condition, so every complete binding is exactly one inequivalent
// schedule, and linearize() turns it into the word the callback receives.
//
// The naive mode instead walks every valid delivery interleaving and keeps
// the first word of each trace key: the independent oracle the binding
// enumeration is tested against, and the baseline it is measured against.
#pragma once

#include <cstdint>
#include <functional>

#include "explore/universe.hpp"

namespace syncon::explore {

struct ExploreOptions {
  /// Stop after this many complete schedules (0 = unbounded). In the
  /// reduced mode every executed schedule is an inequivalent one; in the
  /// naive mode it bounds the interleavings executed.
  std::uint64_t max_schedules = 0;
  /// false: enumerate every valid interleaving (the naive baseline) and
  /// deduplicate by trace key, so the callback set is identical — only the
  /// work differs.
  bool dpor = true;
  /// Split the binding tree at a breadth-first frontier of partial bindings
  /// over ThreadPool::shared(); the callback must then be thread-safe. The
  /// set of schedules visited and every counter are deterministic when the
  /// walk runs to completion; arrival order is not. The naive mode exists to
  /// count and always runs serially.
  bool parallel = false;
};

struct ExploreStats {
  /// Complete schedules executed: one per inequivalent schedule in the
  /// reduced mode, every valid interleaving in the naive mode.
  std::uint64_t schedules_executed = 0;
  /// Inequivalent schedules: distinct trace keys — the callback count.
  /// Equals schedules_executed in the reduced mode.
  std::uint64_t traces_visited = 0;
  /// Naive mode: interleavings whose trace key was already visited. Always
  /// 0 in the reduced mode.
  std::uint64_t duplicate_traces = 0;
  /// Reduced mode: message-to-receive choices rejected because they would
  /// close a happens-before cycle. Always 0 in the naive mode.
  std::uint64_t prefixes_pruned = 0;
  /// Reduced mode: partial bindings whose next message has no admissible
  /// receive op. Naive mode: prefixes with no enabled step before
  /// completion.
  std::uint64_t dead_ends = 0;
  /// True when max_schedules stopped the walk (enumeration incomplete).
  bool budget_exhausted = false;
  /// True when the callback requested a stop.
  bool stopped_by_callback = false;
};

/// Called once per inequivalent schedule. Return false to stop the
/// exploration (e.g. after recording a violation). Must be thread-safe when
/// ExploreOptions::parallel is set.
using ScheduleCallback = std::function<bool(const Schedule&)>;

/// Enumerates the universe's inequivalent schedules. Deterministic for a
/// fixed universe and options (parallel mode: the visited set and all
/// counters are deterministic when the walk runs to completion; arrival
/// order is not). Publishes syncon_explore_* counters and the per-schedule
/// check-latency histogram to MetricRegistry::global() when obs is enabled.
ExploreStats explore(const Universe& u, const ExploreOptions& options,
                     const ScheduleCallback& on_schedule);

}  // namespace syncon::explore
