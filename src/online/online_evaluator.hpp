// Online evaluation of the Table 1 relations between completed interval
// summaries, using ONLY past timestamps (what a running system can know).
//
// Every evaluation runs on Defn 2 proxies read through ProxyViews: a member
// r(X, Y) of R is R(X̂, Ŷ) on the chosen proxies, and a Table 1 relation on
// X and Y themselves is the same test on the proxies whose events decide it
// (see evaluate_online below). One pass over a RelationSet answers a pair's
// watched relations together and allocates nothing.
//
// Cost model per member (verified in tests/bench; weak ⪯ semantics as
// usual), with N_X the node set of X:
//   R1, R1'  —  |N_X| comparisons      (against ∩⇓Ŷ)
//   R2       —  |N_X| comparisons      (against ∪⇓Ŷ)
//   R3       —  |N_X| comparisons      (against ∩⇓Ŷ)
//   R4, R4'  —  |N_X| comparisons      (against ∪⇓Ŷ)
//   R2'      —  |N_Y|·|N_X| comparisons (per-candidate domination test)
//   R3'      —  |N_Y|·|N_X| comparisons
//
// The offline Theorem 20 budgets for R2'/R3' rely on REVERSE timestamps
// (the ∩⇑X / ∪⇑X future cuts), which only exist once the whole trace is
// known; an online monitor fundamentally pays the quadratic corner for
// those two relations. This trade-off is this reproduction's addition to
// the paper's story (DESIGN.md §8).
#pragma once

#include "cuts/ll_relation.hpp"
#include "online/interval_tracker.hpp"
#include "relations/relation.hpp"

namespace syncon {

/// The members of `watched` that hold for (X, Y) (weak semantics): each
/// member r = R(px, py) is R on the views of X's px proxy and Y's py proxy.
/// Counts exactly the comparisons of one call per member.
RelationSet evaluate_online(RelationSet watched, const IntervalSummary& x,
                            const IntervalSummary& y,
                            QueryCost& counter);

/// One member of R: evaluate_online({id}, x, y, counter).
bool evaluate_online(const RelationId& id, const IntervalSummary& x,
                     const IntervalSummary& y, QueryCost& counter);

/// Table 1 applied to X and Y themselves. Each quantifier pair reads only
/// the extreme events that decide it, so this is the member of R on those
/// proxies: R1/R1' on (U_X, L_Y), R2/R2' on (U_X, U_Y), R3/R3' on
/// (L_X, L_Y), R4/R4' on (L_X, U_Y).
bool evaluate_online(Relation r, const IntervalSummary& x,
                     const IntervalSummary& y, QueryCost& counter);

/// Worst-case comparison budget of evaluate_online for one relation.
std::uint64_t online_cost_bound(Relation r, std::size_t n_x, std::size_t n_y);

}  // namespace syncon
