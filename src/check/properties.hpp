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
//   monitor_faulty_vs_clean   the recovery leg of the online monitor
//                       oracle (explore/invariants) on the case's own
//                       report order: a seeded lossy channel + resync vs a
//                       clean feed, identical verdicts, all Definite.
//   monitor_compaction_identity   its compaction leg: the same feed in
//                       chunks, the log compacted at the monitor's
//                       watermark pin between them, then a late joiner.
//   metamorphic_redundant_message   adding a causally redundant message
//                       never changes any verdict.
//   metamorphic_relabel relabeling processes permutes but preserves
//                       verdicts.
//   predicate_roundtrip random sync-condition ASTs render → parse →
//                       evaluate identically to direct AST evaluation.
//   clock_backend_identity   the row-stamped T, F and T^R of every
//                       event, leq of every real pair and C1–C4 of X, Y
//                       and their proxies vs the textbook per-event
//                       Defn 13/14 sweep (one dense clock per event); and
//                       the blocks a stampless evaluator seals for X, Y,
//                       their proxies and one interval registered after
//                       the seal vs compute_cut_counts over those rows.
//   recovery_identity   the crash legs below: a DurableSystem and a
//                       journaled MonitorDaemon tenant crashed at a seeded
//                       point under storage faults and recovered from
//                       their journals: clocks, times and all 32 verdicts
//                       bit-identical to a run that never crashed.
//   schedule_invariance small universes only: enumerate every inequivalent
//                       delivery schedule (src/explore) and run the
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
#include "explore/invariants.hpp"
#include "store/durable.hpp"
#include "store/storage.hpp"
#include "support/rng.hpp"

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

// --- recovery_identity's crash legs, which bench_recovery runs too ----------
// Each kills a journaled host once at a seeded storage op, recovers it from
// its journal and compares the finished run with an uncrashed one.

/// Sync every 1–4 records, segments of 4–15 records, an absolute clock
/// every 1–8 records.
DurabilityPolicy draw_durability_policy(Xoshiro256StarStar& rng);

struct CrashLegResult {
  std::string violation;   ///< first divergence; "" when identical
  bool crashed = false;    ///< the seeded crash fired (a second one fails)
  RecoveryStats recovery;  ///< the restart after the crash (zero if none)
};

/// Drives `exec` in topological order through a DurableSystem, compacting
/// at the retention watermark after every `compact_period`-th event, and
/// crashes after `crash_after_ops` storage ops; after the crash it rescans
/// from the top, skipping recovered events. Executed counts, clocks and
/// every live event's clock and physical time must equal replay(exec)'s.
CrashLegResult crash_durable_system(const Execution& exec,
                                    const SimFaultConfig& faults,
                                    const DurabilityPolicy& policy,
                                    std::uint64_t crash_after_ops,
                                    std::size_t compact_period);

/// Hosts the case as one tenant of a one-shard MonitorDaemon journaling to
/// a SimStorage with `faults`. Its frames: kBegin X and Y; a kEvent per
/// event of `order`, labelled "X", "Y" or "" by membership; a kReport per
/// arrival of the lossy `feed`; a kCheckpoint of sys.snapshot(); both
/// kCompletes; and a one-relation kWatch per relation in all_relation_ids()
/// order. They are pumped 1–16 at a time, and the storage crashes at a
/// seeded one of the pumps' appends and syncs. A fresh daemon then
/// recover()s, and every frame no returned pump acknowledged is
/// resubmitted. The verdict log must be the 32 Definite clean_firings, and
/// a daemon recovered from the journal alone must reproduce it and the
/// frames applied. Neither daemon may quarantine a frame: a resubmitted
/// copy of a replayed frame is a duplicate, neither journaled nor applied.
/// `recovery` describes the restart after the crash: `recovered` when the
/// tenant's journal object existed, `events_replayed` the frames recover()
/// applied, `recovery_micros` its wall time.
CrashLegResult crash_hosted_monitor(const OnlineSystem& sys,
                                    std::span<const EventId> order,
                                    const explore::MonitorActions& actions,
                                    const explore::LossyFeed& feed,
                                    const SimFaultConfig& faults,
                                    Xoshiro256StarStar& rng);

}  // namespace syncon::check
