// Timestamping of a recorded execution: the canonical vector clocks T(e)
// (Defn 13) and the information needed for reverse timestamps T^R(e)
// (Defn 14), computed in two O(|E| + rows·|P|) passes.
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
// Storage: a clock row only where a clock changes. Between two receives on
// a process only its own component of T moves, and between two sends only
// its own component of F (the fact behind differential vector clocks,
// Singhal & Kshemkalyani 1992). So the forward pass stores one row per
// receiving event and the backward pass one row per sending event, plus a
// shared floor row (all ones) and ceiling row (n_i + 1); every other event
// shares the row of its nearest receive before it (forward) or send after
// it (future). A shared row's slot at the owner is stale, so StampView
// answers the owner's component from the event's index instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/execution.hpp"
#include "model/types.hpp"
#include "model/vector_clock.hpp"
#include "support/contracts.hpp"

namespace syncon {

/// T(e) or F(e) of one real event, read through its stored row: every
/// component but the owner's comes from the row, the owner's from e's index
/// (index + 1 forward, index future). Borrowed from the Timestamps or the
/// OnlineSystem log that stores the row.
class StampView {
 public:
  StampView(std::span<const ClockValue> row, ProcessId owner, ClockValue own)
      : row_(row), owner_(owner), own_(own) {}

  std::size_t size() const { return row_.size(); }
  ProcessId owner() const { return owner_; }
  ClockValue own() const { return own_; }

  /// Component i (bounds-checked).
  ClockValue at(std::size_t i) const {
    SYNCON_REQUIRE(i < row_.size(), "clock component out of range");
    return i == owner_ ? own_ : row_[i];
  }
  /// The stored row; its slot at owner() may be stale.
  std::span<const ClockValue> row() const { return row_; }

  /// The dense clock.
  VectorClock dense() const;

  /// Component by component, without materializing a clock.
  friend bool operator==(const StampView& v, const VectorClock& c);
  friend bool operator==(const StampView& a, const StampView& b);

 private:
  std::span<const ClockValue> row_;
  ProcessId owner_;
  ClockValue own_;
};

class Timestamps {
 public:
  /// Stamps every real event of `exec`. The execution must outlive this
  /// object (a reference is retained).
  explicit Timestamps(const Execution& exec);

  const Execution& execution() const { return *exec_; }

  /// T(e), Defn 13. Valid for dummy events too (computed on demand).
  VectorClock forward(EventId e) const;
  /// View of the stored row; requires a real event (no copy).
  StampView forward_ref(EventId e) const;

  /// F(e): per-process index of the earliest event ⪰ e (see header note).
  VectorClock future_start(EventId e) const;
  StampView future_start_ref(EventId e) const;

  /// T^R(e), Defn 14: number of events on each process that ⪰ e.
  VectorClock reverse(EventId e) const;

  /// a ⪯ b (happened-before-or-equal), O(1) via timestamps.
  bool leq(EventId a, EventId b) const;
  /// a ≺ b (strict happened-before).
  bool lt(EventId a, EventId b) const { return a != b && leq(a, b); }
  /// Neither a ⪯ b nor b ⪯ a.
  bool concurrent(EventId a, EventId b) const {
    return !leq(a, b) && !leq(b, a);
  }

  /// Timestamp (= per-process event counts) of the cut ↓e (Defn 8).
  VectorClock past_cut_counts(EventId e) const { return forward(e); }
  /// Timestamp of the cut e↑ (Defn 9): F(e)[i] + 1 per component.
  VectorClock future_cut_counts(EventId e) const;

  /// Stored rows per direction, the floor (forward) or ceiling (future)
  /// included.
  std::size_t forward_row_count() const { return forward_rows_; }
  std::size_t future_row_count() const { return future_rows_; }

 private:
  const Execution* exec_;
  std::size_t width_;  // |P|
  std::size_t forward_rows_ = 0;
  std::size_t future_rows_ = 0;
  // Row r of a direction occupies [r·|P|, (r+1)·|P|) of its array; row 0
  // is the floor (forward) or the ceiling (future). Every slot is written
  // before it is read, so the arrays start uninitialized.
  std::unique_ptr<ClockValue[]> forward_;
  std::unique_ptr<ClockValue[]> future_;
  std::vector<std::uint32_t> forward_row_;  // by creation seq
  std::vector<std::uint32_t> future_row_;   // by creation seq
};

}  // namespace syncon
