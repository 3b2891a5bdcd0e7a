#include "relations/relation.hpp"

#include <ostream>

namespace syncon {

const char* to_string(Relation r) {
  switch (r) {
    case Relation::R1: return "R1";
    case Relation::R1p: return "R1'";
    case Relation::R2: return "R2";
    case Relation::R2p: return "R2'";
    case Relation::R3: return "R3";
    case Relation::R3p: return "R3'";
    case Relation::R4: return "R4";
    case Relation::R4p: return "R4'";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, Relation r) {
  return os << to_string(r);
}

const char* to_string(Semantics s) {
  return s == Semantics::Strict ? "strict(≺)" : "weak(⪯)";
}

std::string to_string(const RelationId& id) {
  std::string s = to_string(id.relation);
  s += '(';
  s += to_string(id.proxy_x);
  s += "(X), ";
  s += to_string(id.proxy_y);
  s += "(Y))";
  return s;
}

std::ostream& operator<<(std::ostream& os, const RelationId& id) {
  return os << to_string(id);
}

}  // namespace syncon
