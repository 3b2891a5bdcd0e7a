// Named cross-layer conformance properties — the differential claims the
// whole repository rests on, each one a deterministic pure function of a
// CheckCase (auxiliary randomness is seeded from the case fingerprint, so
// shrinking re-runs always agree):
//
//   fast_vs_naive       Theorem 20 conditions vs the |N_X|·|N_Y| proxy
//                       quantification (and, on small universes, the BFS
//                       closure oracle) for all 32 relations + cost bounds.
//   strict_vs_naive     the strict (≺) dispatch vs naive strict semantics.
//   timestamp_ll_forms  Theorem 19's cut-timestamp ≪ test vs the four
//                       definitional forms of Defn 7.1–7.4, plus the sound
//                       probe-side checks.
//   batch_parallel_identity   serial vs thread-pool BatchEvaluator sweeps:
//                       bit-identical holding sets and exact cost totals.
//   monitor_faulty_vs_clean   OnlineMonitor fed through a seeded lossy
//                       channel + recovery vs a clean feed: identical
//                       verdicts, all Definite.
//   monitor_compaction_identity   the same differential with the
//                       authoritative log compacted at the monitor's
//                       watermark pin between delivery chunks, plus a
//                       late joiner resynced across the watermark from
//                       the retention checkpoint.
//   metamorphic_redundant_message   adding a causally redundant message
//                       never changes any verdict.
//   metamorphic_relabel relabeling processes permutes but preserves
//                       verdicts.
//   predicate_roundtrip random sync-condition ASTs render → parse →
//                       evaluate identically to direct AST evaluation.
//   clock_backend_identity   dense and tree clock backends stamp, cut
//                       and decide all relations bit-identically, at
//                       equal probe cost.
//   recovery_identity   DurableSystem/DurableMonitor crashed at a seeded
//                       point under storage faults and recovered from
//                       snapshot + WAL tail: clocks and all 32 verdicts
//                       bit-identical to an uninterrupted run.
//   schedule_invariance small universes only: enumerate every inequivalent
//                       delivery schedule (src/explore DPOR) and run the
//                       core invariant battery on each poset — fast ≡
//                       naive, schedule-driven online clocks ≡ offline,
//                       monitor ≡ offline, and verdict stability across
//                       linearizations of the same trace.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "check/case.hpp"

namespace syncon::check {

struct PropertyResult {
  bool passed = true;
  /// On failure: which relation/cut/verdict diverged, for the repro header.
  std::string message;
};

using PropertyFn = PropertyResult (*)(const CheckCase&);

struct PropertyInfo {
  std::string_view name;
  std::string_view description;
  PropertyFn fn;
};

/// All registered properties, in documentation order.
std::span<const PropertyInfo> all_properties();

/// Lookup by name; nullptr when unknown.
const PropertyInfo* find_property(std::string_view name);

/// Budget knobs of the schedule_invariance property. Cases above the size
/// gate pass vacuously (exhaustive enumeration only pays on small
/// universes); max_schedules bounds the walk on pathological fan-outs. The
/// driver's exhaustive mode raises the budget for the duration of a run —
/// within any single run the config is stable, which keeps the property a
/// pure function of the case (what shrinking soundness needs).
struct ScheduleInvarianceConfig {
  std::size_t max_processes = 4;
  std::size_t max_messages = 10;
  std::size_t max_events = 20;
  std::uint64_t max_schedules = 4096;
};

ScheduleInvarianceConfig& schedule_invariance_config();

}  // namespace syncon::check
