// The implication lattice of the causality relations: the partial hierarchy
// of [9, 15] that the 32-relation set fills in.
//
// Two ingredients:
//  * quantifier implications among the eight Table 1 relations
//    (R1 ≡ R1' ⇒ R2' ⇒ R2 ⇒ R4 ≡ R4', R1 ⇒ R3 ⇒ R3' ⇒ R4);
//  * proxy monotonicity: replacing X's proxy U_X by L_X (earlier events)
//    weakens any "x before y" relation, and replacing Y's proxy L_Y by U_Y
//    (later events) also weakens it.
//
// Both are proved by elementary chaining through the per-node linear orders;
// tests/hierarchy_test.cpp verifies them against randomized executions.
#pragma once

#include <array>

#include "relations/relation.hpp"

namespace syncon {

/// r(X,Y) ⟹ s(X,Y) for all X, Y (quantifier lattice, reflexive).
bool implies(Relation r, Relation s);

/// Full implication over the 32-relation set, combining the quantifier
/// lattice with proxy monotonicity (reflexive).
bool implies(const RelationId& a, const RelationId& b);

/// implies() as one pair of masks per relation, indexed by position in
/// all_relation_ids(). When relation k holds, every member of
/// implied_true[k] holds; when it fails, every member of implied_false[k]
/// fails. Both contain k itself, and both are closed, since implies() is
/// transitive: one lookup decides everything a verdict decides.
struct ImplicationClosure {
  std::array<RelationSet, 32> implied_true;   // {j : implies(k, j)}
  std::array<RelationSet, 32> implied_false;  // {j : implies(j, k)}
};

/// The closure, computed once from implies() on first use.
const ImplicationClosure& implication_closure();

}  // namespace syncon
