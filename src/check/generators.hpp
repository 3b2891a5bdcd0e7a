// Seeded generator combinators for the conformance subsystem: everything a
// differential-testing campaign needs to sample — executions (via the
// sim/workload topologies), nonatomic event pairs and synchronization-
// condition ASTs — as pure functions of a 64-bit seed, so every failing
// case is replayable from the seed alone. Link fault schedules come from
// sim/faulty_channel's generate_link_faults.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "check/case.hpp"
#include "relations/evaluator.hpp"
#include "sim/workload.hpp"
#include "support/rng.hpp"

namespace syncon::check {

/// Size envelope of generated cases. Defaults give "randomized large
/// universes" (up to ~500 events) while staying fast enough for thousands
/// of cases per minute. X and Y each span up to 6 processes, with up to 5
/// contiguous events per spanned process.
struct GenLimits {
  WorkloadBounds workload;
};

/// Generates one case deterministically from its seed.
CheckCase generate_case(std::uint64_t case_seed, const GenLimits& limits = {});

/// A randomly generated synchronization condition: its concrete syntax plus
/// an independent oracle evaluation (direct recursion over the generating
/// AST, bypassing the parser) — the differential pair for the predicate
/// round-trip property.
struct ConditionCase {
  std::string text;
  std::function<bool(const RelationEvaluator&, EventHandle, EventHandle)>
      oracle;
};

/// Samples a condition AST of at most `max_depth` operator levels.
ConditionCase generate_condition(Xoshiro256StarStar& rng, int max_depth);

}  // namespace syncon::check
