// The paper's contribution: linear-time evaluation of the Table 1 relations
// using the ≪ relation on cut timestamps (Table 1 third column, Theorems 19
// and 20).
//
// evaluate_fast computes the relations under Weak (⪯) semantics — exactly
// what the ≪-based conditions decide (DESIGN.md §3.3); for disjoint X and Y
// this coincides with the strict definitions.
//
// Comparison budgets (verified by instrumentation; see DESIGN.md §3.3b for
// why R2' and R3 differ from the paper's statement):
//   R1, R1', R4, R4'  —  min(|N_X|, |N_Y|)
//   R2, R3            —  |N_X|
//   R2', R3'          —  |N_Y|
//
// Every condition reads single cut-timestamp components (via
// theorem19_violated and the per-node single-comparison forms), so a probe
// costs exactly the comparisons it counts.
#pragma once

#include <cstdint>

#include "cuts/ll_relation.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/relation.hpp"
#include "support/contracts.hpp"

namespace syncon {

/// Test-only fault injection for the conformance subsystem (src/check): the
/// shrinker's own test suite plants a deliberately wrong condition here and
/// asserts the differential fuzzer finds it and minimizes the failing trace.
/// Off by default; never enable outside tests.
struct FastDebugHooks {
  /// Evaluate R2 with ∩⇓Y in place of ∪⇓Y (R1's down-cut — a strictly
  /// stronger condition, so the fast path under-reports R2).
  bool wrong_r2 = false;
};
FastDebugHooks& fast_debug_hooks();

namespace fast_detail {

// ¬≪(down, up) probed at the X side (nodes of N_X): for each i ∈ N_X the
// up-cut surface is compared against the down-cut at one integer comparison.
inline bool violated_at(const VectorClock& down, const VectorClock& up,
                        std::span<const ProcessId> nodes,
                        ComparisonCounter& counter) {
  return theorem19_violated(down, up, nodes, counter);
}

// Per-node conjunctive tests (R1/R2 via X's nodes): for every i ∈ N_X the
// single-event cut x↑ of the per-node greatest x has surface index(x) at i,
// so ¬≪(down, x↑) probed at {i} is one comparison: down[i] >= index(x)+1.
// Walks X's node spans, which carry each node's greatest index.
inline bool all_x_tests_pass(const VectorClock& down,
                             const NonatomicEvent& x,
                             ComparisonCounter& counter) {
  for (const NonatomicEvent::NodeSpan& s : x.spans()) {
    ++counter.integer_comparisons;
    if (down.at(s.process) < s.greatest + 1) return false;
  }
  return true;
}

// Dual per-node tests (R1'/R3' via Y's nodes): ↓y of the per-node least y
// has surface index(y) at j, so ¬≪(↓y, up) probed at {j} is one comparison:
// index(y)+1 >= up[j].
inline bool all_y_tests_pass(const VectorClock& up, const NonatomicEvent& y,
                             ComparisonCounter& counter) {
  for (const NonatomicEvent::NodeSpan& s : y.spans()) {
    ++counter.integer_comparisons;
    if (s.least + 1 < up.at(s.process)) return false;
  }
  return true;
}

}  // namespace fast_detail

/// Evaluates R(X, Y) from the cached cut timestamps of X and Y. The counter
/// accumulates one integer comparison per node probed.
inline bool evaluate_fast(Relation r, const EventCuts& x, const EventCuts& y,
                          ComparisonCounter& counter) {
  SYNCON_REQUIRE(&x.timestamps() == &y.timestamps(),
                 "cut timestamps of different executions");
  const NonatomicEvent& ex = x.event();
  const NonatomicEvent& ey = y.event();
  const bool x_side_smaller = ex.node_count() <= ey.node_count();

  using namespace fast_detail;
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
      // ∀x: ¬≪(∩⇓Y, x↑), or equivalently ∀y: ¬≪(↓y, ∪⇑X); pick the
      // cheaper route — min(|N_X|, |N_Y|) comparisons.
      if (x_side_smaller) {
        return all_x_tests_pass(y.intersect_past(), ex, counter);
      }
      return all_y_tests_pass(x.union_future(), ey, counter);

    case Relation::R2:
      // ∀x: ¬≪(∪⇓Y, x↑) — |N_X| comparisons. The debug hook swaps in the
      // wrong down-cut (∩⇓Y — R1's condition) for the conformance
      // subsystem's planted-bug tests.
      return all_x_tests_pass(fast_debug_hooks().wrong_r2 ? y.intersect_past()
                                                          : y.union_past(),
                              ex, counter);

    case Relation::R2p:
      // ¬≪(∪⇓Y, ∪⇑X) probed at N_Y — |N_Y| comparisons (the ∪⇑X surface
      // is not early at N_X nodes; probing N_X is unsound, DESIGN.md §3.3b).
      return violated_at(y.union_past(), x.union_future(), ey.node_set(),
                         counter);

    case Relation::R3:
      // ¬≪(∩⇓Y, ∩⇑X) probed at N_X — |N_X| comparisons (dual of R2').
      return violated_at(y.intersect_past(), x.intersect_future(),
                         ex.node_set(), counter);

    case Relation::R3p:
      // ∀y: ¬≪(↓y, ∩⇑X) — |N_Y| comparisons.
      return all_y_tests_pass(x.intersect_future(), ey, counter);

    case Relation::R4:
    case Relation::R4p:
      // ¬≪(∪⇓Y, ∩⇑X): a violation is visible at both N_X and N_Y
      // (Key Idea 2), so probe the smaller — min(|N_X|, |N_Y|).
      return violated_at(y.union_past(), x.intersect_future(),
                         x_side_smaller ? ex.node_set() : ey.node_set(),
                         counter);
  }
  SYNCON_ASSERT(false, "unreachable relation value");
  return false;
}

/// Worst-case integer-comparison budget of evaluate_fast for the given node
/// set sizes (the corrected Theorem 20 bound).
std::uint64_t theorem20_bound(Relation r, std::size_t n_x, std::size_t n_y);

/// The bound as literally claimed by the paper's Theorem 20 (min() for R2'
/// and R3); kept so the benchmark can report both.
std::uint64_t theorem20_paper_bound(Relation r, std::size_t n_x,
                                    std::size_t n_y);

}  // namespace syncon
