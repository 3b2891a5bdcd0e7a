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
// One probe serves every caller: evaluate_fast over two CutsView (four cut
// arrays plus node spans, borrowed) runs the relation switch, the probe
// side, the early exits and the count. It reads components unchecked, one
// array load and one counted comparison per probed node, so both views must
// describe one execution: the EventCuts overload checks once per call that
// both come from one Timestamps, and RelationEvaluator sizes every block by
// its own execution, folded or sealed. The
// evaluator's all-relations sweeps inline it once per member of R with the
// relation fixed, so the switch folds away and each copy's loop exits are
// predicted on their own (relations/evaluator.cpp).
#pragma once

#include <cstdint>
#include <span>

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
inline FastDebugHooks& fast_debug_hooks() {
  static FastDebugHooks hooks;
  return hooks;
}

/// Evaluates R(X, Y) from the cut timestamps and node spans of X and Y
/// (Theorems 19 and 20). The counter gains one integer comparison per node
/// probed. Both views must describe one execution (|P| values per cut).
inline bool evaluate_fast(Relation r, const CutsView& x, const CutsView& y,
                          ComparisonCounter& counter) {
  using NodeSpan = CutsView::NodeSpan;
  using Counts = std::span<const ClockValue>;
  // Per-node conjunctive tests via X's nodes (R1/R2): for every i ∈ N_X the
  // single-event cut x↑ of the per-node greatest x has surface index(x) at
  // i, so ¬≪(down, x↑) probed at {i} is one comparison: down[i] >= index(x)
  // + 1.
  const auto all_x_tests_pass = [&](Counts down) {
    for (const NodeSpan& s : x.spans) {
      ++counter.integer_comparisons;
      if (down[s.process] < s.*x.greatest + 1) return false;
    }
    return true;
  };
  // Dual per-node tests via Y's nodes (R1'/R3'): ↓y of the per-node least
  // y has surface index(y) at j, so ¬≪(↓y, up) probed at {j} is one
  // comparison: index(y) + 1 >= up[j].
  const auto all_y_tests_pass = [&](Counts up) {
    for (const NodeSpan& s : y.spans) {
      ++counter.integer_comparisons;
      if (s.*y.least + 1 < up[s.process]) return false;
    }
    return true;
  };
  // ¬≪(down, up) probed at the given nodes (Theorem 19): is the ↑-cut
  // surface at or below the ↓-cut surface at one of them?
  const auto violated_at = [&](Counts down, Counts up,
                               std::span<const NodeSpan> nodes) {
    for (const NodeSpan& s : nodes) {
      ++counter.integer_comparisons;
      if (down[s.process] >= up[s.process]) return true;
    }
    return false;
  };
  const bool x_side_smaller = x.spans.size() <= y.spans.size();

  switch (r) {
    case Relation::R1:
    case Relation::R1p:
      // ∀x: ¬≪(∩⇓Y, x↑), or equivalently ∀y: ¬≪(↓y, ∪⇑X); pick the
      // cheaper route — min(|N_X|, |N_Y|) comparisons.
      if (x_side_smaller) return all_x_tests_pass(y.intersect_past);
      return all_y_tests_pass(x.union_future);

    case Relation::R2:
      // ∀x: ¬≪(∪⇓Y, x↑) — |N_X| comparisons. The debug hook swaps in the
      // wrong down-cut (∩⇓Y — R1's condition) for the conformance
      // subsystem's planted-bug tests.
      return all_x_tests_pass(fast_debug_hooks().wrong_r2 ? y.intersect_past
                                                          : y.union_past);

    case Relation::R2p:
      // ¬≪(∪⇓Y, ∪⇑X) probed at N_Y — |N_Y| comparisons (the ∪⇑X surface
      // is not early at N_X nodes; probing N_X is unsound, DESIGN.md §3.3b).
      return violated_at(y.union_past, x.union_future, y.spans);

    case Relation::R3:
      // ¬≪(∩⇓Y, ∩⇑X) probed at N_X — |N_X| comparisons (dual of R2').
      return violated_at(y.intersect_past, x.intersect_future, x.spans);

    case Relation::R3p:
      // ∀y: ¬≪(↓y, ∩⇑X) — |N_Y| comparisons.
      return all_y_tests_pass(x.intersect_future);

    case Relation::R4:
    case Relation::R4p:
      // ¬≪(∪⇓Y, ∩⇑X): a violation is visible at both N_X and N_Y
      // (Key Idea 2), so probe the smaller — min(|N_X|, |N_Y|).
      return violated_at(y.union_past, x.intersect_future,
                         x_side_smaller ? x.spans : y.spans);
  }
  SYNCON_ASSERT(false, "unreachable relation value");
  return false;
}

/// The same over two events' cached cuts, which must share one Timestamps.
inline bool evaluate_fast(Relation r, const EventCuts& x, const EventCuts& y,
                          ComparisonCounter& counter) {
  SYNCON_REQUIRE(&x.timestamps() == &y.timestamps(),
                 "cut timestamps of different executions");
  return evaluate_fast(r, x.view(), y.view(), counter);
}

/// Worst-case integer-comparison budget of evaluate_fast for the given node
/// set sizes (the corrected Theorem 20 bound).
std::uint64_t theorem20_bound(Relation r, std::size_t n_x, std::size_t n_y);

/// The bound as literally claimed by the paper's Theorem 20 (min() for R2'
/// and R3); kept so the benchmark can report both.
std::uint64_t theorem20_paper_bound(Relation r, std::size_t n_x,
                                    std::size_t n_y);

}  // namespace syncon
