// The per-schedule invariant battery (DESIGN.md §3.14), and the online
// monitor oracle it shares with the monitor conformance properties.
//
// Once the explorer hands over one canonical schedule per inequivalent
// trace, every cross-layer identity the repository claims becomes provable
// on *every* poset of the universe, not just the sampled one:
//
//   relations   all 32 relations × both argument orders: Theorem 20 fast
//               path ≡ naive proxy quantification on the induced execution
//               (catches fast-path bugs like the planted wrong_r2 hook on
//               every poset, deterministically).
//   online      OnlineSystem driven step-by-step by the schedule itself:
//               every logged clock ≡ the offline Timestamps sweep.
//   monitor     OnlineMonitor fed the schedule's report order: one
//               all-32 set watch fires 32 Definite verdicts ≡ the offline
//               fast evaluator.
//   stability   a second linearization of the *same* trace (reversed feed,
//               a system driven by the binding's highest-process-first
//               word): bit-identical verdicts and clocks — verdicts are a
//               function of the poset, never the schedule.
//   compaction  lossy chunked feed with the log compacted at the watermark
//               pin ≡ the clean uncompacted verdicts, and a late joiner
//               converges across the watermark from the checkpoint.
//   recovery    lossy feed + checkpoint/resync recovery ≡ clean verdicts,
//               all Definite.
//
// The last four legs are monitor_differential, which the monitor properties
// (check/properties) run on a sampled case's own report order. They are
// skipped (vacuously) when Y ⊆ X leaves no Y-only member, since the monitor
// forbids two actions claiming one event.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "explore/universe.hpp"
#include "nonatomic/interval.hpp"
#include "online/online_monitor.hpp"
#include "sim/faulty_channel.hpp"

namespace syncon::explore {

enum : unsigned {
  kInvRelations = 1u << 0,
  kInvOnline = 1u << 1,
  kInvMonitor = 1u << 2,
  kInvStability = 1u << 3,
  kInvCompaction = 1u << 4,
  kInvRecovery = 1u << 5,
};

/// The cheap always-on legs (what `schedule_invariance` runs per trace).
inline constexpr unsigned kInvCore =
    kInvRelations | kInvOnline | kInvMonitor | kInvStability;
inline constexpr unsigned kInvAll =
    kInvCore | kInvCompaction | kInvRecovery;

/// Parses a comma-separated invariant list ("relations,online,monitor,
/// stability,compaction,recovery", plus the aliases "core" and "all").
/// nullopt on an unknown name.
std::optional<unsigned> invariant_mask_from_csv(std::string_view csv);

struct InvariantOptions {
  unsigned mask = kInvCore;
  /// Seeds the fault plans of the compaction / recovery legs.
  std::uint64_t fault_seed = 0;
};

struct ScheduleCheckResult {
  bool passed = true;
  /// On failure: which leg / relation / event diverged.
  std::string message;
  /// The 64 offline verdicts (32 relations × both orders) of the schedule's
  /// induced poset — the payload reduced-vs-naive comparisons assert on.
  std::vector<bool> verdicts;
};

/// Drives `sys` (fresh, sized to the universe) by the schedule itself: exec
/// steps execute locally, a gather's deliveries are shipped as one
/// deliver_all batch at the completing step. Returns the events in
/// execution order (the schedule's linearization of the induced poset).
std::vector<EventId> drive_system(const Universe& u, const Schedule& s,
                                  OnlineSystem& sys);

/// Runs the selected invariant legs on one complete schedule. Pure function
/// of (universe, schedule, members, options) — safe to call concurrently
/// from the explorer's parallel frontier. X/Y member ids refer to per-op
/// events, which exist in every schedule of the universe.
ScheduleCheckResult check_schedule(const Universe& u, const Schedule& s,
                                   const std::vector<EventId>& x_members,
                                   const std::vector<EventId>& y_members,
                                   const InvariantOptions& options = {});

// --- the monitor oracle ------------------------------------------------------

/// The two actions a monitor leg tracks: "X" holds X, "Y" holds Y∖X; a
/// report of neither is only observed.
struct MonitorActions {
  std::set<EventId> x;
  std::set<EventId> y;

  /// Begins "X" and "Y" on `mon` and declares their members, so its
  /// observe() routes every report.
  void open(OnlineMonitor& mon) const;
};

/// X's members, and Y's members outside X.
MonitorActions split_actions(const NonatomicEvent& x, const NonatomicEvent& y);

/// One relation's verdict from a firing of a relation watch.
struct Firing {
  bool holds = false;
  Confidence conf = Confidence::Definite;

  friend bool operator==(const Firing&, const Firing&) = default;
};

/// Watches all 32 relations on ("X", "Y") of a monitor whose actions both
/// completed, as one RelationSet::all() watch; returns its firing expanded
/// into the 32 relations' Firings, in all_relation_ids() order.
std::vector<Firing> watch_all(OnlineMonitor& mon);

/// The clean leg: `reports` in order into a fresh monitor, then watch_all.
std::vector<Firing> clean_firings(std::size_t processes,
                                  std::span<const WireMessage> reports,
                                  const MonitorActions& actions);

/// "" when `got` is 32 Definite firings equal to `expected`; else the
/// first divergence, prefixed with `leg`.
std::string compare_firings(std::string_view leg,
                            const std::vector<Firing>& got,
                            const std::vector<Firing>& expected);

/// A lossy report feed: its link faults and its channel's seed.
struct LossyFeed {
  LinkFaultConfig link;
  std::uint64_t channel_seed = 0;
};

/// generate_link_faults drawn from a fresh generator seeded `link_seed`.
LossyFeed seeded_feed(std::uint64_t link_seed, std::uint64_t channel_seed);

/// `reports`, in order and 5 µs apart, pushed into the feed's channel.
FaultyChannel ship(const LossyFeed& feed,
                   std::span<const WireMessage> reports);

/// The wire reports of `order`'s events, from `sys`'s log.
std::vector<WireMessage> reports_of(const OnlineSystem& sys,
                                    std::span<const EventId> order);

/// The legs monitor_differential runs after the clean feed (see the table
/// at the top of this file); an empty field skips its leg.
struct MonitorPlan {
  /// monitor: the offline verdicts of (X, Y∖X), all Definite.
  std::vector<Firing> offline;
  /// stability: feed the reports in reverse order too.
  bool reversed = false;
  /// recovery: one lossy delivery, then checkpoint + resync.
  std::optional<LossyFeed> lossy;
  /// compaction: lossy delivery in chunks, the log compacted between them.
  std::optional<LossyFeed> compaction;
};

/// The online monitor oracle. Feeds `reports` — a linearization of `sys`'s
/// events — to a clean monitor, then runs the legs of `plan` in the order
/// monitor, stability, recovery, compaction. `sys` is the authoritative log
/// the resyncs are served from; the compaction leg compacts it. Requires a
/// non-empty Y∖X. Returns the first violation, "" when every leg holds.
std::string monitor_differential(OnlineSystem& sys,
                                 std::span<const WireMessage> reports,
                                 const MonitorActions& actions,
                                 const MonitorPlan& plan);

}  // namespace syncon::explore
