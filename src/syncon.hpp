// Umbrella header: the full public API of the syncon library.
//
// Layering (each layer only depends on the ones above it):
//   support    — contracts, RNG, stats, tables, CLI
//   model      — events, the vector clock, executions, row-stamped
//                timestamps
//   cuts       — cuts, the << relation, special cuts, global-state lattice
//   nonatomic  — nonatomic events, proxies, poset cut timestamps
//   relations  — the paper's relation evaluators and implication lattice
//   online     — runtime monitoring with piggybacked clocks
//   monitor    — offline monitoring: traces, conditions, mutex checking
//   sim        — workload and scenario generators
//   check      — property-based conformance: generators, shrinker, fuzzer
#pragma once

#include "support/cli.hpp"          // IWYU pragma: export
#include "support/contracts.hpp"    // IWYU pragma: export
#include "support/rng.hpp"          // IWYU pragma: export
#include "support/stats.hpp"        // IWYU pragma: export
#include "support/table.hpp"        // IWYU pragma: export
#include "support/thread_pool.hpp"  // IWYU pragma: export

#include "model/execution.hpp"          // IWYU pragma: export
#include "model/execution_metrics.hpp"  // IWYU pragma: export
#include "model/reachability.hpp"       // IWYU pragma: export
#include "model/scalar_clock.hpp"       // IWYU pragma: export
#include "model/timestamps.hpp"         // IWYU pragma: export
#include "model/types.hpp"              // IWYU pragma: export
#include "model/vector_clock.hpp"       // IWYU pragma: export

#include "cuts/cut.hpp"            // IWYU pragma: export
#include "cuts/global_states.hpp"  // IWYU pragma: export
#include "cuts/ll_relation.hpp"    // IWYU pragma: export
#include "cuts/special_cuts.hpp"   // IWYU pragma: export

#include "nonatomic/cut_timestamps.hpp"  // IWYU pragma: export
#include "nonatomic/interval.hpp"        // IWYU pragma: export

#include "relations/batch.hpp"              // IWYU pragma: export
#include "relations/evaluator.hpp"          // IWYU pragma: export
#include "relations/fast.hpp"               // IWYU pragma: export
#include "relations/hierarchy.hpp"          // IWYU pragma: export
#include "relations/interaction_types.hpp"  // IWYU pragma: export
#include "relations/naive.hpp"              // IWYU pragma: export
#include "relations/relation.hpp"           // IWYU pragma: export
#include "relations/sparse_cuts.hpp"        // IWYU pragma: export

#include "online/interval_tracker.hpp"  // IWYU pragma: export
#include "online/online_evaluator.hpp"  // IWYU pragma: export
#include "online/online_monitor.hpp"   // IWYU pragma: export
#include "online/online_system.hpp"    // IWYU pragma: export
#include "online/wire_codec.hpp"       // IWYU pragma: export

#include "timing/physical_time.hpp"       // IWYU pragma: export
#include "timing/timing_constraints.hpp"  // IWYU pragma: export

#include "monitor/global_condition.hpp"  // IWYU pragma: export
#include "monitor/monitor.hpp"        // IWYU pragma: export
#include "monitor/mutex_checker.hpp"  // IWYU pragma: export
#include "monitor/predicate.hpp"      // IWYU pragma: export
#include "monitor/report.hpp"         // IWYU pragma: export
#include "monitor/trace_io.hpp"       // IWYU pragma: export

#include "sim/des.hpp"              // IWYU pragma: export
#include "sim/interval_picker.hpp"  // IWYU pragma: export
#include "sim/scenarios.hpp"        // IWYU pragma: export
#include "sim/workload.hpp"         // IWYU pragma: export

#include "check/case.hpp"        // IWYU pragma: export
#include "check/driver.hpp"      // IWYU pragma: export
#include "check/generators.hpp"  // IWYU pragma: export
#include "check/properties.hpp"  // IWYU pragma: export
#include "check/shrink.hpp"      // IWYU pragma: export
