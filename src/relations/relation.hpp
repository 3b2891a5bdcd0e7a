// The eight causality relations of Table 1 (from Kshemkalyani, JCSS 1996)
// and the 32-relation set R between nonatomic poset events obtained by
// instantiating each of the eight with one of the two proxies of X and of Y.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>
#include <vector>

#include "nonatomic/interval.hpp"

namespace syncon {

/// Table 1. The primed relations reverse the quantifier order; R4 and R4'
/// are logically identical, as are R1 and R1' (kept distinct for fidelity).
enum class Relation : std::uint8_t {
  R1,   // ∀x ∀y : x ≺ y
  R1p,  // ∀y ∀x : x ≺ y
  R2,   // ∀x ∃y : x ≺ y
  R2p,  // ∃y ∀x : x ≺ y
  R3,   // ∃x ∀y : x ≺ y
  R3p,  // ∀y ∃x : x ≺ y
  R4,   // ∃x ∃y : x ≺ y
  R4p,  // ∃y ∃x : x ≺ y
};

inline constexpr std::array<Relation, 8> kAllRelations = {
    Relation::R1, Relation::R1p, Relation::R2, Relation::R2p,
    Relation::R3, Relation::R3p, Relation::R4, Relation::R4p};

const char* to_string(Relation r);
std::ostream& operator<<(std::ostream& os, Relation r);

/// Whether ≺ is taken strictly (the paper's definitions) or as its reflexive
/// closure ⪯ (what the linear-time conditions compute; see DESIGN.md §3.3 —
/// the two agree whenever X and Y are disjoint).
enum class Semantics : std::uint8_t { Strict, Weak };

const char* to_string(Semantics s);

/// One element of the 32-relation set R: a Table 1 relation applied to a
/// chosen proxy of X and a chosen proxy of Y.
struct RelationId {
  Relation relation;
  ProxyKind proxy_x;
  ProxyKind proxy_y;

  friend bool operator==(const RelationId&, const RelationId&) = default;
};

/// Position of `id` in all_relation_ids(): relation · 4 + proxy_x · 2 +
/// proxy_y, with L (Begin) before U (End).
constexpr std::size_t relation_index(const RelationId& id) {
  return static_cast<std::size_t>(id.relation) * 4 +
         static_cast<std::size_t>(id.proxy_x) * 2 +
         static_cast<std::size_t>(id.proxy_y);
}

/// The member of R at position k < 32 of all_relation_ids().
constexpr RelationId relation_at(std::size_t k) {
  return RelationId{static_cast<Relation>(k / 4),
                    static_cast<ProxyKind>(k / 2 % 2),
                    static_cast<ProxyKind>(k % 2)};
}

/// All 32 members of R, ordered by (relation, proxy_x, proxy_y).
constexpr std::array<RelationId, 32> all_relation_ids() {
  std::array<RelationId, 32> ids{};
  for (std::size_t k = 0; k < ids.size(); ++k) ids[k] = relation_at(k);
  return ids;
}

/// A subset of R — the synchronization-matrix view of one pair: all 32
/// verdicts as one 32-bit mask, bit k standing for all_relation_ids()[k].
/// Iterates its members in all_relation_ids() order and converts to the
/// std::vector<RelationId> of the same members.
class RelationSet {
 public:
  /// Forward iterator over the members; yields RelationIds by value.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RelationId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RelationId;

    constexpr const_iterator() = default;
    constexpr explicit const_iterator(std::uint32_t rest) : rest_(rest) {}

    constexpr RelationId operator*() const {
      return relation_at(static_cast<std::size_t>(std::countr_zero(rest_)));
    }
    constexpr const_iterator& operator++() {
      rest_ &= rest_ - 1;  // drop the lowest member
      return *this;
    }
    constexpr const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend constexpr bool operator==(const_iterator,
                                     const_iterator) = default;

   private:
    std::uint32_t rest_ = 0;  // members not yet visited
  };

  constexpr RelationSet() = default;
  constexpr explicit RelationSet(std::uint32_t mask) : mask_(mask) {}

  /// All 32 members of R.
  static constexpr RelationSet all() { return RelationSet(~std::uint32_t{0}); }
  /// The one-member set {id}.
  static constexpr RelationSet of(const RelationId& id) {
    return RelationSet(std::uint32_t{1} << relation_index(id));
  }

  constexpr std::uint32_t mask() const { return mask_; }
  constexpr std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(mask_));
  }
  constexpr bool empty() const { return mask_ == 0; }
  constexpr bool contains(const RelationId& id) const {
    return ((mask_ >> relation_index(id)) & 1u) != 0;
  }

  constexpr const_iterator begin() const { return const_iterator(mask_); }
  constexpr const_iterator end() const { return const_iterator(); }

  /// The members in all_relation_ids() order.
  operator std::vector<RelationId>() const {
    return std::vector<RelationId>(begin(), end());
  }

  friend constexpr bool operator==(RelationSet, RelationSet) = default;
  /// Union.
  friend constexpr RelationSet operator|(RelationSet a, RelationSet b) {
    return RelationSet(a.mask_ | b.mask_);
  }

 private:
  std::uint32_t mask_ = 0;
};

/// "R2'(U(X), L(Y))"-style rendering.
std::string to_string(const RelationId& id);
std::ostream& operator<<(std::ostream& os, const RelationId& id);

}  // namespace syncon
