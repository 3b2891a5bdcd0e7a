// The conformance driver: generate cases from a master seed, run the named
// cross-layer properties on each, shrink every failure to a minimal
// replayable repro. Fully deterministic given (seed, max_cases): the
// optional wall-clock budget only decides when generation STOPS, never what
// any case contains or how a property judges it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/case.hpp"
#include "check/generators.hpp"
#include "check/properties.hpp"
#include "check/shrink.hpp"

namespace syncon::check {

struct DriverOptions {
  std::uint64_t seed = 1;
  /// Cases to generate; 0 means unlimited (bounded by the time budget).
  std::size_t max_cases = 200;
  /// Wall-clock budget in seconds; 0 means no time limit.
  double budget_seconds = 0.0;
  /// Property names to run; empty means all registered properties.
  std::vector<std::string> properties;
  GenLimits limits;
  bool shrink_failures = true;
  /// Stop after this many failures; 0 means collect them all.
  std::size_t stop_after_failures = 1;
  /// Exhaustive mode: force schedule_invariance into the property set (when
  /// a property filter is given) and lift its schedule budget for the run,
  /// so every case under the size gate gets full enumeration instead of the
  /// default bounded walk. The budget is restored when the run ends.
  bool exhaustive = false;
};

struct FailureReport {
  std::string property;
  std::uint64_t case_seed = 0;
  std::size_t case_index = 0;
  /// The failing property's message (which relation/cut/verdict diverged).
  std::string detail;
  CheckCase minimized;  ///< the generated case when shrinking was disabled
  ShrinkStats shrink_stats;
  /// Self-contained replayable repro of the minimized case (trace_io form).
  std::string repro;
};

struct DriverReport {
  std::size_t cases_run = 0;
  std::size_t property_runs = 0;
  std::vector<FailureReport> failures;

  bool ok() const { return failures.empty(); }
};

/// The i-th case seed of a campaign: the (i+1)-th output of the SplitMix64
/// stream seeded with the master seed, computable in O(1) for any index.
std::uint64_t case_seed_for(std::uint64_t master_seed, std::size_t index);

/// Runs one property on one case, converting any escaped exception (e.g. a
/// ContractViolation out of the library under test) into a failed result —
/// a crash IS a conformance failure, and this keeps the shrinker's
/// predicate total.
PropertyResult run_property_on_case(const PropertyInfo& property,
                                    const CheckCase& c);

/// Runs the campaign. When `log` is non-null, progress and failure details
/// are streamed to it as they happen. Unknown property names are a contract
/// violation.
DriverReport run_conformance(const DriverOptions& options,
                             std::ostream* log = nullptr);

}  // namespace syncon::check
