// The << relation between cuts (Defn 7) and its efficient violation test
// (Key Idea 2 / Theorem 19).
//
// Canonical counts form (derived in DESIGN.md §3.2):
//   <<(C, C')  iff  C' != E^⊥  and  ∀ i ∈ N_C : counts_C[i] < counts_C'[i].
//
// The four definitional forms 7.1–7.4 are provided verbatim as reference
// implementations (7.2 and 7.4 express ¬<<, as the paper notes). They agree
// with the canonical form on every cut pair where C contains no final dummy
// event of an *event-less* process (always true for the ↓-style cuts the
// theory applies them to); tests pin down the degenerate divergence.
//
// theorem19_violated is the Theorem 19 probe over two standalone cut
// timestamps (nonatomic/cut_timestamps.hpp): it reads single VectorClock
// components, one counted comparison per probed node. The fast evaluator
// (relations/fast.hpp) runs the same test inline over borrowed cut arrays.
#pragma once

#include <cstdint>
#include <span>

#include "cuts/cut.hpp"
#include "model/types.hpp"
#include "model/vector_clock.hpp"
#include "support/contracts.hpp"

namespace syncon {

/// Cost-model instrumentation. `integer_comparisons` counts the unit the
/// paper's Theorems 19/20 count (one per surface-timestamp probe);
/// `causality_checks` counts atomic-event causality tests (the unit of the
/// naive |N_X| x |N_Y| evaluation).
///
/// QueryCost is a plain value: evaluators accumulate into a caller-provided
/// instance, so each thread keeps its own tally and merges with `+=` at
/// join. Totals are exact regardless of scheduling — the counts are sums of
/// per-query contributions, and addition commutes.
struct QueryCost {
  std::uint64_t integer_comparisons = 0;
  std::uint64_t causality_checks = 0;

  void reset() { *this = QueryCost{}; }

  QueryCost& operator+=(const QueryCost& other) {
    integer_comparisons += other.integer_comparisons;
    causality_checks += other.causality_checks;
    return *this;
  }
  friend QueryCost operator+(QueryCost lhs, const QueryCost& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend bool operator==(const QueryCost&, const QueryCost&) = default;
};

/// Legacy name for QueryCost, kept for the pre-batch-engine call sites.
using ComparisonCounter = QueryCost;

/// Canonical test for <<(C, C'); scans all |P| components.
bool ll(const Cut& c, const Cut& c_prime);

/// Defn 7.1 (condition for <<), implemented literally over surfaces.
bool ll_form1(const Cut& c, const Cut& c_prime);
/// Defn 7.2 (condition for ¬<<), literal.
bool not_ll_form2(const Cut& c, const Cut& c_prime);
/// Defn 7.3 (condition for <<), literal.
bool ll_form3(const Cut& c, const Cut& c_prime);
/// Defn 7.4 (condition for ¬<<), literal.
bool not_ll_form4(const Cut& c, const Cut& c_prime);

/// Theorem 19 probe: decides ¬<<(down_counts, up_counts) by examining ONLY
/// the given probe nodes, at one integer comparison each (early exit on the
/// first violation).
///
/// Preconditions (satisfied by the cuts the theorem applies to — C of
/// ↓-type determined by a set Y, C' of ↑-type determined by a set X; see
/// Key Idea 2):
///  * up_counts[i] >= 2 for every process i (↑-style cuts always reach past
///    ⊥, because ⊥_i never ⪰ a real event), so any probed violation site is
///    automatically in N_C;
///  * probe_nodes is N_X or N_Y — the proof of Theorem 19 shows a violation,
///    if any exists, is visible at a node of either set.
inline bool theorem19_violated(const VectorClock& down_counts,
                               const VectorClock& up_counts,
                               std::span<const ProcessId> probe_nodes,
                               ComparisonCounter& counter) {
  SYNCON_REQUIRE(down_counts.size() == up_counts.size(),
                 "cut timestamps of different sizes");
  for (const ProcessId i : probe_nodes) {
    // One paper-counted comparison per probed node: is the ↑-cut surface
    // at i at or below the ↓-cut surface? (Defn 7.4's violation site.)
    ++counter.integer_comparisons;
    if (down_counts.at(i) >= up_counts.at(i)) return true;
  }
  return false;
}

}  // namespace syncon
