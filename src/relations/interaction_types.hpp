// Application-level discrimination on top of the relation set: the full
// profile of the eight Table 1 relations in both directions between two
// nonatomic events, a coarse interaction classification derived from it,
// and per-direction coupling grades (the "fine level of discrimination in
// the specification of causality" the paper's introduction motivates).
#pragma once

#include <array>
#include <optional>

#include "cuts/ll_relation.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/relation.hpp"

namespace syncon {

/// All eight relations, evaluated forward (X, Y) and backward (Y, X).
struct RelationProfile {
  std::array<bool, 8> forward{};
  std::array<bool, 8> backward{};

  bool holds(Relation r) const {
    return forward[static_cast<std::size_t>(r)];
  }
  bool holds_reverse(Relation r) const {
    return backward[static_cast<std::size_t>(r)];
  }
};

/// Computes the profile with the linear-time evaluators (weak semantics);
/// at most 16 · max(|N_X|, |N_Y|) integer comparisons.
RelationProfile relation_profile(const EventCuts& x, const EventCuts& y,
                                 QueryCost& counter);

/// Coarse classification of how X and Y interact causally.
enum class InteractionType {
  Concurrent,      // no causality in either direction
  Precedes,        // R1(X, Y): X completes entirely before any of Y depends
  Follows,         // R1(Y, X)
  WeaklyPrecedes,  // forward causality only, but not total (¬R1)
  WeaklyFollows,   // backward causality only
  Entangled,       // causality in both directions (the events interleave)
};

const char* to_string(InteractionType t);

InteractionType classify(const RelationProfile& profile);

/// Per-direction coupling grade: the strongest relation that holds, by the
/// quantifier lattice (R1 ≻ {R2', R3} ≻ {R2, R3'} ≻ R4 ≻ none).
enum class CouplingGrade {
  None,       // not even R4
  Partial,    // R4 only
  OneSided,   // R2 or R3' (every x feeds Y / every y fed by X) but not both
  Funneled,   // R2' or R3 (a single event dominates/seeds the other side)
  Total,      // R1
};

const char* to_string(CouplingGrade g);

CouplingGrade forward_grade(const RelationProfile& profile);
CouplingGrade backward_grade(const RelationProfile& profile);

}  // namespace syncon
