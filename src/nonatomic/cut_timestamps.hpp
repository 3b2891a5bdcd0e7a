// The four execution prefixes a nonatomic poset event X identifies
// (Defn 10 / Table 2) and their timestamps (Lemma 16 / Corollary 17):
//
//   C1(X) = ∩⇓X = ∩_{x∈X} ↓x   — past every x knows      (min of T(x))
//   C2(X) = ∪⇓X = ∪_{x∈X} ↓x   — past X collectively knows (max of T(x))
//   C3(X) = ∩⇑X = ∩_{x∈X} x↑   — future started by some x  (min of T(x↑))
//   C4(X) = ∪⇑X = ∪_{x∈X} x↑   — future started by all x   (max of T(x↑))
//
// EventCuts computes all four timestamps once per nonatomic event (Key Idea
// 1) touching only the per-node extreme elements of X (the end-of-§2.3
// optimization: the min is attained at per-node least events, the max at
// per-node greatest events), i.e. |N_X| event timestamps per cut instead of
// |X|. It folds the stored stamp rows in place — a row-wide min or max, then
// the owner's component from the view, since a shared row's owner slot is
// stale — and applies the uniform +1 that turns F(x) into the e↑ cut counts
// once at the end (min and max commute with adding the same constant to
// every component).
#pragma once

#include "cuts/cut.hpp"
#include "model/timestamps.hpp"
#include "model/vector_clock.hpp"
#include "nonatomic/interval.hpp"
#include "support/contracts.hpp"

namespace syncon {

/// Identifies one of the four special cuts of a poset event (Table 2).
enum class PosetCut {
  IntersectPast,   // C1(X) = ∩⇓X
  UnionPast,       // C2(X) = ∪⇓X
  IntersectFuture, // C3(X) = ∩⇑X
  UnionFuture,     // C4(X) = ∪⇑X
};

const char* to_string(PosetCut which);

/// The cached cut timestamps of one nonatomic event. Construction costs
/// O(|N_X| · |P|) and is reused across every relation evaluation involving
/// the event (Key Idea 1).
class EventCuts {
 public:
  EventCuts(const Timestamps& ts, const NonatomicEvent& x);

  const NonatomicEvent& event() const { return *event_; }
  const Timestamps& timestamps() const { return *ts_; }

  /// T(Ck(X)) as per Corollary 17.
  const VectorClock& counts(PosetCut which) const {
    return c_[static_cast<std::size_t>(which)];
  }

  /// Materializes the chosen prefix as a Cut object.
  Cut cut(PosetCut which) const {
    return Cut(ts_->execution(), counts(which));
  }

  /// Shorthands matching the paper's notation.
  const VectorClock& intersect_past() const { return c_[0]; }   // ∩⇓X
  const VectorClock& union_past() const { return c_[1]; }       // ∪⇓X
  const VectorClock& intersect_future() const { return c_[2]; } // ∩⇑X
  const VectorClock& union_future() const { return c_[3]; }     // ∪⇑X

 private:
  const Timestamps* ts_;
  const NonatomicEvent* event_;
  VectorClock c_[4];
};

/// Reference computation folding over EVERY member event with the cut
/// lattice operations (no extreme-element shortcut); used by tests to
/// validate the optimized path and Lemma 16 itself. Intentionally dense.
VectorClock poset_cut_counts_reference(const Timestamps& ts,
                                       const NonatomicEvent& x,
                                       PosetCut which);

}  // namespace syncon
