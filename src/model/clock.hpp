// The clock concept (DESIGN.md §3.11): the algebra every timestamp
// representation must implement so stamping (model/timestamps.hpp), the
// Theorem 19 probe (cuts/ll_relation.hpp, relations/fast.hpp) and the C1–C4
// cut-timestamp construction (nonatomic/cut_timestamps.hpp) can run over
// any backend.
//
// A clock is a fixed-width vector of ClockValue components forming the
// usual lattice: merge_max is join (Lemma 16, union of cuts), merge_min is
// meet (intersection), leq the componentwise order. Backends differ in how
// they *represent* the vector, not in what it means:
//
//   VectorClock      dense std::vector — the default; every operation O(|P|)
//   TreeClock        Fidge/Mattern values arranged as a tree recording who
//                    learned what through whom, so monotone joins prune
//                    whole already-known subtrees (arXiv 2201.06325)
//
// Bounded piggyback bytes on the wire (arXiv 1606.05962) are a property of
// the link codec (online/wire_codec.hpp), not of a clock backend.
//
// Semantic requirements beyond the signatures (verified for every backend
// by tests/clock_concept_test.cpp and the `clock_backend_identity`
// conformance property):
//   * merge_max / merge_min are commutative, associative, idempotent, and
//     mutually absorptive (a lattice);
//   * leq is the lattice order: a.leq(b) iff merge_max(a, b) == b;
//   * lt(b) == leq(b) && *this != b; incomparable = neither leq;
//   * tick(i) adds one to component i and declares the clock "owned" by i —
//     callers must only tick a clock that represents exactly process i's
//     current knowledge (the stamping invariant backends like TreeClock
//     rely on for sublinear joins);
//   * set(i, v) is an arbitrary component write: always safe, but it may
//     demote a backend to its dense fallback paths (it breaks the causal
//     interpretation of the components);
//   * to_dense() / from_dense() convert losslessly to the dense
//     representation — the explicit conversion boundary for layers that
//     stay dense (cuts/watermark componentwise-min, Cut materialization);
//   * encode(out) appends a self-delimiting serialization that decode(in)
//     parses back to an equal clock (in is consumed by reference, so
//     encoded clocks concatenate).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/types.hpp"
#include "model/vector_clock.hpp"

namespace syncon {

template <typename C>
concept ClockRep =
    std::regular<C> &&  // default-constructible, copyable, ==
    requires(C c, const C& cc, std::size_t i, ClockValue v,
             const VectorClock& dense, std::vector<std::uint8_t>& bytes,
             std::span<const std::uint8_t>& in) {
      C(std::size_t{}, ClockValue{});  // size, fill
      { cc.size() } -> std::convertible_to<std::size_t>;
      { cc.at(i) } -> std::convertible_to<ClockValue>;
      { c.set(i, v) } -> std::same_as<void>;
      { c.tick(i) } -> std::same_as<void>;
      { c.merge_max(cc) } -> std::same_as<void>;
      { c.merge_min(cc) } -> std::same_as<void>;
      { cc.leq(cc) } -> std::convertible_to<bool>;
      { cc.lt(cc) } -> std::convertible_to<bool>;
      { cc.incomparable(cc) } -> std::convertible_to<bool>;
      { cc.to_dense() } -> std::same_as<VectorClock>;
      { C::from_dense(dense) } -> std::same_as<C>;
      { cc.encode(bytes) } -> std::same_as<void>;
      { C::decode(in) } -> std::same_as<C>;
    };

/// Canonical spelling of the lattice operations is the in-place member
/// (merge_max / merge_min); these free functions are the copying
/// convenience form and simply delegate.
template <ClockRep C>
C component_max(const C& a, const C& b) {
  C out = a;
  out.merge_max(b);
  return out;
}

template <ClockRep C>
C component_min(const C& a, const C& b) {
  C out = a;
  out.merge_min(b);
  return out;
}

}  // namespace syncon
