// Vector timestamps (Fidge/Mattern canonical vector clocks, Defn 13 of the
// paper) and the componentwise operations the paper's Lemma 16 relies on.
//
// A VectorClock of size |P| is also the representation of a *cut timestamp*
// (Defn 15): component i is the number of events of process i inside the cut.
//
// VectorClock is the one clock class: a plain std::vector of components,
// every operation O(|P|). Stamping stores its clocks as shared rows
// (model/timestamps.hpp) and hands them out as StampView; the lattice
// operations also take a bare row as a span, so folding a row costs no copy.
//
// Component access is the narrow read API: size() / at() for single
// components, values() for a read-only span over the dense storage, set()
// and tick() for writes. The single-component accessors are inline: they sit
// on the Theorem 19 probe, one call per component.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "model/types.hpp"
#include "support/contracts.hpp"

namespace syncon {

class VectorClock {
 public:
  VectorClock() = default;
  /// All components initialized to `fill`.
  explicit VectorClock(std::size_t size, ClockValue fill = 0);
  explicit VectorClock(std::vector<ClockValue> components);
  VectorClock(std::initializer_list<ClockValue> components)
      : components_(components) {}

  std::size_t size() const { return components_.size(); }

  /// Component i (bounds-checked).
  ClockValue at(std::size_t i) const {
    SYNCON_REQUIRE(i < components_.size(), "clock component out of range");
    return components_[i];
  }
  /// Read-only view of the dense storage.
  std::span<const ClockValue> values() const { return components_; }
  /// Writes component i (bounds-checked).
  void set(std::size_t i, ClockValue v) {
    SYNCON_REQUIRE(i < components_.size(), "clock component out of range");
    components_[i] = v;
  }
  /// Advances component i by one (the "local event on process i" step).
  void tick(std::size_t i) {
    SYNCON_REQUIRE(i < components_.size(), "clock component out of range");
    ++components_[i];
  }

  /// Read shorthand for at(i).
  ClockValue operator[](std::size_t i) const { return at(i); }

  /// this[i] = max(this[i], other[i]) for every i (Lemma 16, union of cuts).
  void merge_max(std::span<const ClockValue> other);
  void merge_max(const VectorClock& other) { merge_max(other.values()); }
  /// this[i] = min(this[i], other[i]) for every i (Lemma 16, intersection).
  void merge_min(std::span<const ClockValue> other);
  void merge_min(const VectorClock& other) { merge_min(other.values()); }

  /// Componentwise order: true iff this[i] <= other[i] for all i.
  bool leq(const VectorClock& other) const;
  /// Strict order of the clock lattice: leq(other) and some component is <.
  bool lt(const VectorClock& other) const;
  /// Neither leq in either direction (events: concurrent).
  bool incomparable(const VectorClock& other) const;

  /// Appends a self-delimiting serialization: varint size, then each
  /// component as a zigzag varint delta from its left neighbor (stamped
  /// clocks have strongly correlated adjacent components, so deltas stay
  /// short).
  void encode(std::vector<std::uint8_t>& out) const;
  /// Consumes one encoded clock from the front of `in`.
  static VectorClock decode(std::span<const std::uint8_t>& in);
  /// decode() into this clock, reusing its storage: no allocation when it
  /// already held a clock at least as wide. On a throw its components are
  /// unspecified.
  void decode_from(std::span<const std::uint8_t>& in);

  /// Size 0, storage kept — a reused decode target refills it in place.
  void clear() { components_.clear(); }
  /// Overwrites every component with `values`, reusing the storage.
  void assign(std::span<const ClockValue> values) {
    components_.assign(values.begin(), values.end());
  }

  friend bool operator==(const VectorClock&, const VectorClock&) = default;

 private:
  std::vector<ClockValue> components_;
};

/// The copying forms of merge_max / merge_min.
inline VectorClock component_max(VectorClock a, const VectorClock& b) {
  a.merge_max(b);
  return a;
}
inline VectorClock component_min(VectorClock a, const VectorClock& b) {
  a.merge_min(b);
  return a;
}

std::ostream& operator<<(std::ostream& os, const VectorClock& vc);

}  // namespace syncon
