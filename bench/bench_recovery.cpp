// Crash/recovery sweep for the durability subsystem (DESIGN.md §3.12,
// §3.15).
//
// Each iteration runs the two crash legs of the `recovery_identity`
// property (check/properties.hpp) on this sweep's own scenario, with the
// storage backend injecting torn tails and bit flips:
//   system   a DurableSystem killed at a seeded-random storage op and
//            recovered from the newest valid snapshot plus the surviving
//            WAL tail; per-event clocks and physical times must equal an
//            uninterrupted replay.
//   monitor  the case hosted as one tenant of a journaled MonitorDaemon,
//            its report feed suffering ≥15% drop/duplicate/reorder, killed
//            at a seeded-random journal append or sync, recover()ed from
//            its frame journal with the unacknowledged frames resubmitted;
//            all 32 relation verdicts (Definite) must equal the fault-free
//            reference, and so must a second restart from the journal
//            alone.
// A recovery row counts the restart after the crash: the DurableSystem
// constructor's scan, or MonitorDaemon::recover() (its replayed frames and
// wall time).
//
// Scale dials for CI smoke vs a long sweep: SYNCON_RECOVERY_ITERS,
// SYNCON_RECOVERY_SEED. scripts/ci_recovery_smoke.sh runs a pinned-seed
// configuration and asserts on the syncon_recovery_* gauges this binary
// publishes into the telemetry JSON (SYNCON_BENCH_JSON), including a
// wall-clock budget on the worst recovery.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "check/properties.hpp"
#include "obs/flight.hpp"
#include "online/online_system.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 10);
}

SimFaultConfig storage_faults(std::uint64_t seed) {
  SimFaultConfig faults;
  faults.torn_tail = 0.6;
  faults.bit_flip = 0.1;
  faults.seed = seed;
  return faults;
}

/// Running tally across the sweep; `identity` goes (and stays) false on the
/// first divergence from the uninterrupted reference.
struct SweepStats {
  bool identity = true;
  std::uint64_t runs = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;  // recoveries that found durable state
  std::uint64_t events_replayed = 0;
  std::uint64_t events_skipped = 0;
  std::uint64_t recovery_micros_max = 0;
  std::uint64_t recovery_micros_total = 0;

  void absorb(const check::CrashLegResult& leg) {
    ++runs;
    if (!leg.violation.empty()) identity = false;
    if (!leg.crashed) return;
    ++crashes;
    const RecoveryStats& r = leg.recovery;
    if (!r.recovered) return;  // fresh start: nothing was scanned
    ++recoveries;
    events_replayed += r.events_replayed;
    events_skipped += r.events_skipped;
    recovery_micros_max = std::max(recovery_micros_max, r.recovery_micros);
    recovery_micros_total += r.recovery_micros;
  }
};

/// System leg: 4 processes of 24 events, compacted every 7 events.
void system_leg(std::uint64_t seed, SweepStats& stats) {
  Xoshiro256StarStar rng(seed);
  const Execution exec =
      generate_execution(standard_workload(4, 24, seed * 3 + 1));
  const DurabilityPolicy policy = check::draw_durability_policy(rng);
  const std::uint64_t crash_after =
      1 + rng.below(exec.topological_order().size());
  stats.absorb(check::crash_durable_system(exec, storage_faults(seed), policy,
                                           crash_after, 7));
}

/// Monitor leg: X and Y are fixed runs on processes 0 and 1 of 4 processes
/// of 20 events, reported through a link dropping 20%, duplicating 18% and
/// reordering 25%.
void monitor_leg(std::uint64_t seed, SweepStats& stats) {
  Xoshiro256StarStar rng(seed);
  const Execution exec = generate_execution(standard_workload(4, 20, seed));
  std::set<EventId> x_set, y_set;
  for (EventIndex i = 2; i <= exec.real_count(0) && i <= 9; ++i) {
    x_set.insert(EventId{0, i});
  }
  for (EventIndex i = 3; i <= exec.real_count(1) && i <= 11; ++i) {
    y_set.insert(EventId{1, i});
  }
  explore::LossyFeed feed;
  feed.link.drop_probability = 0.2;
  feed.link.duplicate_probability = 0.18;
  feed.link.reorder_probability = 0.25;
  feed.link.max_delay = 40;
  feed.channel_seed = seed ^ 0xFEED;
  stats.absorb(check::crash_hosted_monitor(
      replay(exec), exec.topological_order(),
      {std::move(x_set), std::move(y_set)}, feed,
      storage_faults(seed ^ 0xC0FFEE), rng));
}

int run() {
  banner("E13: bench_recovery", "extension: crash/recovery identity",
         "kill + recover under link and storage faults: verdict identity");
  auto& registry = obs::MetricRegistry::global();

  const std::uint64_t iters = env_u64("SYNCON_RECOVERY_ITERS", 24);
  const std::uint64_t seed0 = env_u64("SYNCON_RECOVERY_SEED", 0x5EC0BE);

  SweepStats stats;
  for (std::uint64_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = seed0 + iter;
    system_leg(seed, stats);
    monitor_leg(seed, stats);
    if (!stats.identity) {
      std::printf("bench_recovery: identity BROKEN at seed %llu\n",
                  static_cast<unsigned long long>(seed));
      break;
    }
  }

  const std::uint64_t micros_avg =
      stats.recoveries == 0 ? 0
                            : stats.recovery_micros_total / stats.recoveries;
  TextTable table({"crash/recovery sweep", "value"});
  table.new_row().add_cell(std::string("runs (system + monitor)"))
      .add_cell(stats.runs);
  table.new_row().add_cell(std::string("crashes injected"))
      .add_cell(stats.crashes);
  table.new_row()
      .add_cell(std::string("recoveries with durable state"))
      .add_cell(stats.recoveries);
  table.new_row()
      .add_cell(std::string("records replayed / skipped"))
      .add_cell(std::to_string(stats.events_replayed) + " / " +
                std::to_string(stats.events_skipped));
  table.new_row()
      .add_cell(std::string("recovery µs (max / avg)"))
      .add_cell(std::to_string(stats.recovery_micros_max) + " / " +
                std::to_string(micros_avg));
  table.new_row()
      .add_cell(std::string("bit-identical to uninterrupted run"))
      .add_cell(std::string(stats.identity ? "yes" : "NO"));
  std::printf("%s\n", table.to_string().c_str());

  registry.gauge("syncon_recovery_identity").set(stats.identity ? 1 : 0);
  registry.gauge("syncon_recovery_runs")
      .set(static_cast<std::int64_t>(stats.runs));
  registry.gauge("syncon_recovery_crashes")
      .set(static_cast<std::int64_t>(stats.crashes));
  registry.gauge("syncon_recovery_recoveries")
      .set(static_cast<std::int64_t>(stats.recoveries));
  registry.gauge("syncon_recovery_events_replayed")
      .set(static_cast<std::int64_t>(stats.events_replayed));
  registry.gauge("syncon_recovery_events_skipped")
      .set(static_cast<std::int64_t>(stats.events_skipped));
  registry.gauge("syncon_recovery_micros_max")
      .set(static_cast<std::int64_t>(stats.recovery_micros_max));
  registry.gauge("syncon_recovery_micros_avg")
      .set(static_cast<std::int64_t>(micros_avg));

  const bool ok = stats.identity && stats.crashes > 0 && stats.recoveries > 0;
  if (!ok) std::printf("bench_recovery: FAILED recovery guarantees\n");
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  start_telemetry();
  // SYNCON_FLIGHT_JSON (DESIGN.md §3.13): record the sweep's WAL syncs,
  // rotations, snapshots, and recoveries in the flight ring and dump it.
  const char* flight_path = std::getenv("SYNCON_FLIGHT_JSON");
  if (flight_path != nullptr) syncon::obs::set_flight_enabled(true);
  const int rc = run();
  if (flight_path != nullptr) {
    syncon::obs::set_flight_enabled(false);
    std::ofstream out(flight_path);
    syncon::obs::write_flight_json(out,
                                   syncon::obs::FlightRecorder::global().dump());
    std::printf("flight dump -> %s\n", flight_path);
  }
  finish_telemetry("bench_recovery");
  return rc;
}
