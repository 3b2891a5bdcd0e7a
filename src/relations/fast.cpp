#include "relations/fast.hpp"

#include <algorithm>

namespace syncon {

std::uint64_t theorem20_bound(Relation r, std::size_t n_x, std::size_t n_y) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R4:
    case Relation::R4p:
      return std::min(n_x, n_y);
    case Relation::R2:
    case Relation::R3:
      return n_x;
    case Relation::R2p:
    case Relation::R3p:
      return n_y;
  }
  return 0;
}

std::uint64_t theorem20_paper_bound(Relation r, std::size_t n_x,
                                    std::size_t n_y) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R2p:
    case Relation::R3:
    case Relation::R4:
    case Relation::R4p:
      return std::min(n_x, n_y);
    case Relation::R2:
      return n_x;
    case Relation::R3p:
      return n_y;
  }
  return 0;
}

}  // namespace syncon
