#include "model/timestamps.hpp"

#include "model/tree_clock.hpp"

namespace syncon {

// Compile the stamping sweep once per supported backend. Implicit
// instantiation in other translation units still works; these keep both
// backends honest against the template even when no test touches one of
// them.
template class BasicTimestamps<VectorClock>;
template class BasicTimestamps<TreeClock>;

}  // namespace syncon
