#include "relations/hierarchy.hpp"

namespace syncon {

namespace {

bool quantifier_implies(Relation r, Relation s) {
  auto norm = [](Relation q) {
    // R1 ≡ R1' and R4 ≡ R4' are logically identical.
    if (q == Relation::R1p) return Relation::R1;
    if (q == Relation::R4p) return Relation::R4;
    return q;
  };
  const Relation a = norm(r);
  const Relation b = norm(s);
  if (a == b) return true;
  switch (a) {
    case Relation::R1:
      return true;  // ∀∀ implies every other form (X, Y non-empty)
    case Relation::R2p:
      return b == Relation::R2 || b == Relation::R4;
    case Relation::R2:
      return b == Relation::R4;
    case Relation::R3:
      return b == Relation::R3p || b == Relation::R4;
    case Relation::R3p:
      return b == Relation::R4;
    default:
      return false;
  }
}

// X-proxy strength: U_X (End, later events) is at least as strong as L_X.
bool proxy_x_implies(ProxyKind a, ProxyKind b) {
  return a == b || (a == ProxyKind::End && b == ProxyKind::Begin);
}

// Y-proxy strength: L_Y (Begin, earlier events) is at least as strong.
bool proxy_y_implies(ProxyKind a, ProxyKind b) {
  return a == b || (a == ProxyKind::Begin && b == ProxyKind::End);
}

}  // namespace

bool implies(Relation r, Relation s) { return quantifier_implies(r, s); }

bool implies(const RelationId& a, const RelationId& b) {
  return quantifier_implies(a.relation, b.relation) &&
         proxy_x_implies(a.proxy_x, b.proxy_x) &&
         proxy_y_implies(a.proxy_y, b.proxy_y);
}

const ImplicationClosure& implication_closure() {
  static const ImplicationClosure closure = [] {
    ImplicationClosure c;
    const auto ids = all_relation_ids();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      std::uint32_t implied_true = 0;
      std::uint32_t implied_false = 0;
      for (std::size_t j = 0; j < ids.size(); ++j) {
        if (implies(ids[k], ids[j])) implied_true |= 1u << j;
        if (implies(ids[j], ids[k])) implied_false |= 1u << j;
      }
      c.implied_true[k] = RelationSet(implied_true);
      c.implied_false[k] = RelationSet(implied_false);
    }
    return c;
  }();
  return closure;
}

}  // namespace syncon
