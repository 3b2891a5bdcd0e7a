// Delta-debugging shrinker for failing conformance cases (ddmin in the
// spirit of Zeller & Hildebrandt, specialised to the CheckCase structure):
// given a case on which a property fails, minimize it along structured axes
//   1. drop whole processes,
//   2. truncate per-process event chains,
//   3. drop message edges (chunked ddmin),
//   4. shrink X / Y membership (chunked ddmin),
//   5. squeeze out unreferenced interior events (index compaction),
// re-running the property on every candidate and keeping only edits that
// preserve the failure. Deterministic: the result is a pure function of the
// input case and the property.
#pragma once

#include <cstddef>
#include <functional>

#include "check/case.hpp"
#include "check/properties.hpp"

namespace syncon::check {

/// The predicate the shrinker preserves. Must be deterministic (see
/// fingerprint()); `passed == false` is the failure being minimized.
using CaseProperty = std::function<PropertyResult(const CheckCase&)>;

struct ShrinkOptions {
  /// Hard cap on property evaluations (deterministic time bound).
  std::size_t max_evaluations = 50000;
};

struct ShrinkStats {
  std::size_t evaluations = 0;  ///< property runs on candidates
  std::size_t accepted = 0;     ///< candidates that kept the failure
  std::size_t rounds = 0;       ///< full axis passes performed
};

/// Minimizes `failing` (on which `property` must fail) and returns the
/// smallest failing case found. Every intermediate candidate is validated
/// via materialize(), so the result is always a well-formed case.
CheckCase shrink_case(const CheckCase& failing, const CaseProperty& property,
                      ShrinkStats* stats = nullptr,
                      const ShrinkOptions& options = {});

}  // namespace syncon::check
