// The four execution prefixes a nonatomic poset event X identifies
// (Defn 10 / Table 2) and their timestamps (Lemma 16 / Corollary 17):
//
//   C1(X) = ∩⇓X = ∩_{x∈X} ↓x   — past every x knows      (min of T(x))
//   C2(X) = ∪⇓X = ∪_{x∈X} ↓x   — past X collectively knows (max of T(x))
//   C3(X) = ∩⇑X = ∩_{x∈X} x↑   — future started by some x  (min of T(x↑))
//   C4(X) = ∪⇑X = ∪_{x∈X} x↑   — future started by all x   (max of T(x↑))
//
// Each is computed once per nonatomic event (Key Idea 1) from the per-node
// extreme elements of X only (the end-of-§2.3 optimization: the min is
// attained at per-node least events, the max at per-node greatest events),
// i.e. |N_X| event timestamps per cut instead of |X|. Two routes write the
// same values:
//  * compute_cut_counts folds the stored Timestamps rows in place — a
//    row-wide min or max, then the owner's component from the view, since a
//    shared row's owner slot is stale — and applies the uniform +1 that
//    turns F(x) into the e↑ cut counts once at the end (min and max commute
//    with adding the same constant to every component). EventCuts owns one
//    event's four cuts this way, and RelationEvaluator folds a block so when
//    it has stamps.
//  * seal_cut_blocks needs no stamps: one forward and one backward sweep
//    over the execution keep a running clock per process and the clocks of
//    messages in flight, and fold each registered interval's extremes into
//    its block as their clocks become final. Nothing per event is stored;
//    this is how a stampless RelationEvaluator writes its blocks.
#pragma once

#include <array>
#include <span>

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

/// One nonatomic event as the Theorem 19/20 probe reads it
/// (relations/fast.hpp): its four cut timestamps, |P| components each, and
/// its node spans. The probe's per-node tests read each node's least and
/// greatest member through the span members `least` and `greatest` name, so
/// a Defn 2 proxy, which has one event per node, is read through its
/// interval's own spans by naming the member it keeps (proxy_end) for both.
/// Borrowed: the EventCuts or RelationEvaluator that made it must outlive
/// it.
struct CutsView {
  using NodeSpan = NonatomicEvent::NodeSpan;

  std::span<const ClockValue> intersect_past;    // C1 = ∩⇓X
  std::span<const ClockValue> union_past;        // C2 = ∪⇓X
  std::span<const ClockValue> intersect_future;  // C3 = ∩⇑X
  std::span<const ClockValue> union_future;      // C4 = ∪⇑X
  std::span<const NodeSpan> spans;
  EventIndex NodeSpan::*least = &NodeSpan::least;
  EventIndex NodeSpan::*greatest = &NodeSpan::greatest;
};

/// Writes T(C1)..T(C4) (Corollary 17) of the event with the given node
/// spans, each node's least and greatest member read as in CutsView, to
/// out[0..3], |P| values each. `spans` must be non-empty and name real
/// events of ts's execution. O(|N_X| · |P|).
void compute_cut_counts(
    const Timestamps& ts, std::span<const NonatomicEvent::NodeSpan> spans,
    EventIndex NonatomicEvent::NodeSpan::*least,
    EventIndex NonatomicEvent::NodeSpan::*greatest,
    const std::array<ClockValue*, 4>& out);

/// One registered interval's block as seal_cut_blocks writes it: the
/// interval's node spans and 8·|P| values, C1–C4 of L_X then C1–C4 of U_X
/// (PosetCut order, |P| each), the future cuts' +1 applied — what
/// compute_cut_counts writes for the two Defn 2 proxies, read through the
/// spans with proxy_end.
struct CutBlock {
  std::span<const NonatomicEvent::NodeSpan> spans;
  ClockValue* cuts;
};

/// Writes every block from exec alone: one forward sweep computes T of each
/// event and one backward sweep F, each with a running clock per process
/// (|P|² values) and a pool of message clocks in flight, and each event's
/// final clock is folded into the block halves that list it as a proxy
/// member. O(|E| + (|M| + Σ|N_X|) · |P|) time; eight allocations, plus two
/// per doubling of the message-clock pool (it starts with room for |P|
/// clocks), none per event or block. Every span must name real events
/// of exec, and messages must come grouped by receive event in creation
/// order, as ExecutionBuilder records them.
void seal_cut_blocks(const Execution& exec, std::span<const CutBlock> blocks);

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

  /// The probe's view of these cuts and the event's spans.
  CutsView view() const {
    return CutsView{c_[0].values(), c_[1].values(), c_[2].values(),
                    c_[3].values(), event_->spans()};
  }

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
