#include "relations/interaction_types.hpp"

#include "relations/fast.hpp"

namespace syncon {

RelationProfile relation_profile(const EventCuts& x, const EventCuts& y,
                                 QueryCost& counter) {
  RelationProfile p;
  for (const Relation r : kAllRelations) {
    const auto i = static_cast<std::size_t>(r);
    p.forward[i] = evaluate_fast(r, x, y, counter);
    p.backward[i] = evaluate_fast(r, y, x, counter);
  }
  return p;
}

const char* to_string(InteractionType t) {
  switch (t) {
    case InteractionType::Concurrent: return "concurrent";
    case InteractionType::Precedes: return "precedes";
    case InteractionType::Follows: return "follows";
    case InteractionType::WeaklyPrecedes: return "weakly-precedes";
    case InteractionType::WeaklyFollows: return "weakly-follows";
    case InteractionType::Entangled: return "entangled";
  }
  return "?";
}

InteractionType classify(const RelationProfile& p) {
  const bool fwd = p.holds(Relation::R4);
  const bool bwd = p.holds_reverse(Relation::R4);
  if (!fwd && !bwd) return InteractionType::Concurrent;
  if (fwd && bwd) return InteractionType::Entangled;
  if (fwd) {
    return p.holds(Relation::R1) ? InteractionType::Precedes
                                 : InteractionType::WeaklyPrecedes;
  }
  return p.holds_reverse(Relation::R1) ? InteractionType::Follows
                                       : InteractionType::WeaklyFollows;
}

const char* to_string(CouplingGrade g) {
  switch (g) {
    case CouplingGrade::None: return "none";
    case CouplingGrade::Partial: return "partial";
    case CouplingGrade::OneSided: return "one-sided";
    case CouplingGrade::Funneled: return "funneled";
    case CouplingGrade::Total: return "total";
  }
  return "?";
}

namespace {

CouplingGrade grade(const std::array<bool, 8>& bits) {
  auto holds = [&](Relation r) { return bits[static_cast<std::size_t>(r)]; };
  if (holds(Relation::R1)) return CouplingGrade::Total;
  if (holds(Relation::R2p) || holds(Relation::R3)) {
    return CouplingGrade::Funneled;
  }
  if (holds(Relation::R2) || holds(Relation::R3p)) {
    return CouplingGrade::OneSided;
  }
  if (holds(Relation::R4)) return CouplingGrade::Partial;
  return CouplingGrade::None;
}

}  // namespace

CouplingGrade forward_grade(const RelationProfile& p) {
  return grade(p.forward);
}

CouplingGrade backward_grade(const RelationProfile& p) {
  return grade(p.backward);
}

}  // namespace syncon
