// Timestamping of a recorded execution: the canonical vector clocks T(e)
// (Defn 13) and the information needed for reverse timestamps T^R(e)
// (Defn 14), computed in two O(|E|·|P|) passes.
//
// Conventions (see DESIGN.md §3.1):
//  * T(e)[i] counts ALL events on process i that ⪯ e, including dummies, so
//    T(e)[proc(e)] = index(e) + 1 and T(e)[i] >= 1 for every non-dummy e.
//  * F(e)[i] ("future start") is the index on process i of the earliest
//    event that ⪰ e; sentinel total_count(i) when no such event exists
//    (which can only happen for e = ⊤_j, i != j). T^R(e)[i] =
//    total_count(i) - F(e)[i].
//  * The cut ↓e has counts T(e); the cut e↑ has counts F(e) + 1 — these are
//    the timestamps the paper derives at the end of its Section 2.3 (our
//    constants differ because we pin down dummy counting; the paper leaves
//    it implicit).
//
// BasicTimestamps is generic over the clock representation (ClockRep,
// model/clock.hpp). The forward sweep is phrased in the monotone clock
// algebra — start from the predecessor's clock (or the all-ones floor),
// tick the owner, then join the incoming clocks — which is bit-identical
// to the classic "merge then overwrite own component" formulation (every
// joined clock is causally before e, so its own component is at most
// index(e)) and is exactly the discipline sublinear backends such as
// TreeClock rely on. The backward pass mirrors it — start from the process
// successor's F, meet the receivers' F, pin the owner — and writes sentinel
// components, so it runs on every backend's dense paths. `Timestamps`
// remains the dense VectorClock instantiation and is the default everywhere.
#pragma once

#include <numeric>
#include <vector>

#include "model/clock.hpp"
#include "model/execution.hpp"
#include "model/types.hpp"
#include "model/vector_clock.hpp"
#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon {

template <ClockRep Clock>
class BasicTimestamps {
 public:
  using clock_type = Clock;

  /// Stamps every real event of `exec`. The execution must outlive this
  /// object (a reference is retained).
  explicit BasicTimestamps(const Execution& exec);

  const Execution& execution() const { return *exec_; }

  /// T(e), Defn 13. Valid for dummy events too (computed on demand).
  Clock forward(EventId e) const;
  /// Reference to the stored clock; requires a real event (no copy).
  const Clock& forward_ref(EventId e) const;

  /// F(e): per-process index of the earliest event ⪰ e (see header note).
  Clock future_start(EventId e) const;
  const Clock& future_start_ref(EventId e) const;

  /// T^R(e), Defn 14: number of events on each process that ⪰ e.
  Clock reverse(EventId e) const;

  /// a ⪯ b (happened-before-or-equal), O(1) via timestamps.
  bool leq(EventId a, EventId b) const;
  /// a ≺ b (strict happened-before).
  bool lt(EventId a, EventId b) const { return a != b && leq(a, b); }
  /// Neither a ⪯ b nor b ⪯ a.
  bool concurrent(EventId a, EventId b) const {
    return !leq(a, b) && !leq(b, a);
  }

  /// Timestamp (= per-process event counts) of the cut ↓e (Defn 8).
  Clock past_cut_counts(EventId e) const { return forward(e); }
  /// Timestamp of the cut e↑ (Defn 9): F(e)[i] + 1 per component.
  Clock future_cut_counts(EventId e) const;

 private:
  const Execution* exec_;
  std::vector<Clock> forward_;  // by creation seq, real events
  std::vector<Clock> future_;   // by creation seq, real events
};

/// The default, dense instantiation used throughout the repo.
using Timestamps = BasicTimestamps<VectorClock>;

// ---------------------------------------------------------------------------
// Implementation.

template <ClockRep Clock>
BasicTimestamps<Clock>::BasicTimestamps(const Execution& exec) : exec_(&exec) {
  SYNCON_SPAN("model/stamp");
  const std::size_t p_count = exec.process_count();
  const auto& order = exec.topological_order();
  forward_.resize(order.size());
  future_.resize(order.size());

  // Forward pass: creation order is topological for ≺. Start from the
  // predecessor's clock (the all-ones floor for index 1: ⊥_i ≺ e for every
  // process i, the paper's axiom), advance the owner, join the incoming
  // clocks — the order that keeps causal backends on their fast path.
  for (std::size_t seq = 0; seq < order.size(); ++seq) {
    const EventId e = order[seq];
    Clock t = e.index > 1
                  ? forward_[exec.topological_index({e.process, e.index - 1})]
                  : Clock(p_count, 1);
    t.tick(e.process);
    for (const EventId& src : exec.incoming(e)) {
      t.merge_max(forward_[exec.topological_index(src)]);
    }
    // |{events on own process ⪯ e}| — the joins cannot raise it, because
    // every joined clock is causally before e.
    SYNCON_ASSERT(t.at(e.process) == e.index + 1,
                  "stamped clock must own exactly index + 1 local events");
    forward_[seq] = std::move(t);
  }

  // Backward pass needs each event's message receivers: a CSR fan-out, the
  // receivers of the event at seq being receivers[fanout[seq]..fanout[seq+1]).
  std::vector<std::uint32_t> fanout(order.size() + 1, 0);
  for (const Message& m : exec.messages()) {
    ++fanout[exec.topological_index(m.source) + 1];
  }
  std::partial_sum(fanout.begin(), fanout.end(), fanout.begin());
  std::vector<std::uint32_t> receivers(exec.messages().size());
  std::vector<std::uint32_t> cursor(fanout.begin(), fanout.end() - 1);
  for (const Message& m : exec.messages()) {
    receivers[cursor[exec.topological_index(m.source)]++] =
        exec.topological_index(m.target);
  }

  // Ceiling: e ≺ ⊤_i for every process i, so F(e)[i] <= index(⊤_i).
  Clock ceiling(p_count, 0);
  for (std::size_t i = 0; i < p_count; ++i) {
    ceiling.set(i, exec.real_count(static_cast<ProcessId>(i)) + 1);
  }

  // The mirror of the forward pass: start from the process successor's F
  // (the ceiling for a process's last event), then meet the F of every event
  // that receives e's messages. Seeding from F(successor) instead of the
  // ceiling is exact because no stored F exceeds the ceiling.
  for (std::size_t seq = order.size(); seq-- > 0;) {
    const EventId e = order[seq];
    Clock f = e.index < exec.real_count(e.process)
                  ? future_[exec.topological_index({e.process, e.index + 1})]
                  : ceiling;
    for (std::uint32_t k = fanout[seq]; k < fanout[seq + 1]; ++k) {
      f.merge_min(future_[receivers[k]]);
    }
    f.set(e.process, e.index);  // e itself is the earliest event ⪰ e
    future_[seq] = std::move(f);
  }
}

template <ClockRep Clock>
const Clock& BasicTimestamps<Clock>::forward_ref(EventId e) const {
  SYNCON_REQUIRE(exec_->is_real(e), "forward_ref requires a real event");
  return forward_[exec_->topological_index(e)];
}

template <ClockRep Clock>
const Clock& BasicTimestamps<Clock>::future_start_ref(EventId e) const {
  SYNCON_REQUIRE(exec_->is_real(e), "future_start_ref requires a real event");
  return future_[exec_->topological_index(e)];
}

template <ClockRep Clock>
Clock BasicTimestamps<Clock>::forward(EventId e) const {
  SYNCON_REQUIRE(exec_->valid_event(e), "forward() of invalid event");
  const std::size_t p_count = exec_->process_count();
  if (exec_->is_initial(e)) {
    Clock t(p_count, 0);
    t.set(e.process, 1);
    return t;
  }
  if (exec_->is_final(e)) {
    Clock t(p_count, 0);
    for (std::size_t i = 0; i < p_count; ++i) {
      t.set(i, exec_->real_count(static_cast<ProcessId>(i)) + 1);
    }
    t.set(e.process, e.index + 1);  // = n_p + 2: includes ⊤_p itself
    return t;
  }
  return forward_ref(e);
}

template <ClockRep Clock>
Clock BasicTimestamps<Clock>::future_start(EventId e) const {
  SYNCON_REQUIRE(exec_->valid_event(e), "future_start() of invalid event");
  const std::size_t p_count = exec_->process_count();
  if (exec_->is_initial(e)) {
    // ⊥_p ≺ every non-dummy event and every ⊤_i; earliest on p is itself.
    Clock f(p_count, 1);
    f.set(e.process, 0);
    return f;
  }
  if (exec_->is_final(e)) {
    // Nothing follows ⊤_p except itself; sentinel total_count elsewhere.
    Clock f(p_count, 0);
    for (std::size_t i = 0; i < p_count; ++i) {
      f.set(i, exec_->total_count(static_cast<ProcessId>(i)));
    }
    f.set(e.process, e.index);
    return f;
  }
  return future_start_ref(e);
}

template <ClockRep Clock>
Clock BasicTimestamps<Clock>::reverse(EventId e) const {
  const Clock f = future_start(e);
  Clock r(exec_->process_count(), 0);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r.set(i, exec_->total_count(static_cast<ProcessId>(i)) - f.at(i));
  }
  return r;
}

template <ClockRep Clock>
Clock BasicTimestamps<Clock>::future_cut_counts(EventId e) const {
  Clock f = future_start(e);
  for (std::size_t i = 0; i < f.size(); ++i) f.set(i, f.at(i) + 1);
  return f;
}

template <ClockRep Clock>
bool BasicTimestamps<Clock>::leq(EventId a, EventId b) const {
  SYNCON_REQUIRE(exec_->valid_event(a) && exec_->valid_event(b),
                 "leq() of invalid event");
  if (a == b) return true;
  if (exec_->is_initial(a)) {
    // ⊥_i precedes everything except the other initial events.
    return !(exec_->is_initial(b) && b.process != a.process);
  }
  if (exec_->is_final(a)) return false;  // nothing follows a final event
  if (exec_->is_initial(b)) return false;
  if (exec_->is_final(b)) return true;  // every non-dummy event precedes ⊤_j
  // Both real: a ⪯ b iff b knows at least index(a)+1 events of a's process.
  return forward_ref(a).at(a.process) <= forward_ref(b).at(a.process);
}

}  // namespace syncon
