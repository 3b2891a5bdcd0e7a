// syncon_explore — exhaustive delivery-schedule exploration.
//
// Builds a bounded universe (from the conformance generators or a saved
// repro), enumerates every inequivalent delivery schedule — one schedule
// per acyclic binding of messages to receives, i.e. per induced
// happens-before poset — and runs the selected invariant battery on each.
// Any violating universe is delta-debugged down to a minimal replayable
// repro, shared with syncon_check.
//
//   syncon_explore --seed 1 --procs 4 --messages 10     # one universe
//   syncon_explore --seed 7 --cases 100                 # property sweep
//   syncon_explore --repro failing.trace                # replay a repro
//   syncon_explore --procs 4 --messages 10 --naive      # measure reduction
//
// Exit status: 0 every schedule held, 1 a violation was found, 2 usage
// error (including: no generated case matches the requested universe size).
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "check/driver.hpp"
#include "explore/explorer.hpp"
#include "explore/invariants.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"

namespace {

using namespace syncon;
using namespace syncon::check;

struct UniverseRun {
  explore::ExploreStats stats;
  std::uint64_t naive_schedules = 0;
  bool naive_capped = false;
  bool naive_ran = false;
  double wall_seconds = 0.0;
  std::string violation;
};

/// Explores one case's universe with the given battery. Fills `run`;
/// returns false when a schedule violated an invariant.
bool explore_case(const CheckCase& c, unsigned mask,
                  std::uint64_t max_schedules, bool parallel, bool naive,
                  UniverseRun& run) {
  const std::optional<MaterializedCase> m = materialize(c);
  if (!m) {
    run.violation = "case failed to materialize";
    return false;
  }
  const explore::Universe u = explore::universe_from_execution(*m->exec);

  explore::InvariantOptions inv;
  inv.mask = mask;
  inv.fault_seed = fingerprint(c);
  explore::ExploreOptions opt;
  opt.max_schedules = max_schedules;
  opt.parallel = parallel;

  const auto start = std::chrono::steady_clock::now();
  run.stats = explore::explore(u, opt, [&](const explore::Schedule& s) {
    const explore::ScheduleCheckResult r =
        explore::check_schedule(u, s, c.x_members, c.y_members, inv);
    if (!r.passed) {
      run.violation = r.message;
      return false;
    }
    return true;
  });
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (naive && run.violation.empty()) {
    explore::ExploreOptions base = opt;
    base.dpor = false;
    // Unbounded naive enumeration can explode where the binding walk does
    // not; give it a cap when the caller did not.
    if (base.max_schedules == 0) base.max_schedules = std::uint64_t{1} << 22;
    const explore::ExploreStats nstats =
        explore::explore(u, base, [](const explore::Schedule&) {
          return true;
        });
    run.naive_ran = true;
    run.naive_schedules = nstats.schedules_executed;
    run.naive_capped = nstats.budget_exhausted;
  }
  return run.violation.empty();
}

void print_run(const UniverseRun& run) {
  std::cout << "schedules executed " << run.stats.schedules_executed
            << ", inequivalent " << run.stats.traces_visited
            << ", cyclic choices rejected " << run.stats.prefixes_pruned
            << ", duplicates " << run.stats.duplicate_traces << ", dead ends "
            << run.stats.dead_ends << ", wall "
            << run.wall_seconds << "s\n";
  if (run.stats.budget_exhausted) {
    std::cout << "NOTE: schedule budget exhausted — enumeration incomplete\n";
  }
  if (run.naive_ran) {
    std::cout << "naive enumeration: " << run.naive_schedules << " schedules"
              << (run.naive_capped ? " (capped)" : "") << " -> reduced ran "
              << run.stats.schedules_executed << "\n";
  }
}

void write_stats_json(const std::string& path, const CheckCase& c,
                      const UniverseRun& run) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write stats file: " << path << "\n";
    return;
  }
  os << "{\n"
     << "  \"procs\": " << c.process_count() << ",\n"
     << "  \"events\": " << c.total_events() << ",\n"
     << "  \"messages\": " << c.messages.size() << ",\n"
     << "  \"schedules_executed\": " << run.stats.schedules_executed << ",\n"
     << "  \"inequivalent_schedules\": " << run.stats.traces_visited << ",\n"
     << "  \"prefixes_pruned\": " << run.stats.prefixes_pruned << ",\n"
     << "  \"duplicate_traces\": " << run.stats.duplicate_traces << ",\n"
     << "  \"dead_ends\": " << run.stats.dead_ends << ",\n"
     << "  \"budget_exhausted\": "
     << (run.stats.budget_exhausted ? "true" : "false") << ",\n"
     << "  \"naive_schedules\": " << run.naive_schedules << ",\n"
     << "  \"naive_capped\": " << (run.naive_capped ? "true" : "false")
     << ",\n"
     << "  \"wall_seconds\": " << run.wall_seconds << ",\n"
     << "  \"violation\": " << (run.violation.empty() ? "false" : "true")
     << "\n}\n";
}

/// Shrinks a violating case through the schedule_invariance property (the
/// same predicate the fuzzer uses) and prints the repro. The property gate
/// is already lifted to cover the CLI universe by the caller.
void report_violation(const CheckCase& c, std::uint64_t case_seed,
                      const std::string& message, bool shrink,
                      const std::string& repro_out) {
  std::cout << "VIOLATION: " << message << "\n";
  const PropertyInfo* property = find_property("schedule_invariance");
  CheckCase minimized = c;
  if (shrink && !run_property_on_case(*property, c).passed) {
    ShrinkStats stats;
    minimized = shrink_case(
        c,
        [property](const CheckCase& candidate) {
          return run_property_on_case(*property, candidate);
        },
        &stats);
    std::cout << "shrunk to " << minimized.process_count() << " procs / "
              << minimized.total_events() << " events / "
              << minimized.messages.size() << " msgs in " << stats.evaluations
              << " evaluations\n";
  }
  const std::string repro = repro_to_string(
      minimized, ReproMeta{"schedule_invariance", case_seed});
  if (!repro_out.empty()) {
    std::ofstream os(repro_out);
    os << repro;
    std::cout << "repro written to " << repro_out << "\n";
  } else {
    std::cout << repro;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("syncon_explore",
                "Delivery-schedule explorer: enumerate one schedule per "
                "happens-before poset of a bounded universe and prove the "
                "invariant battery on each.");
  cli.add_option("seed", "1", "master seed (case search / sweep stream)");
  cli.add_option("procs", "4", "process count of the target universe");
  cli.add_option("events", "5", "max events per process of the universe");
  cli.add_option("messages", "10", "message count of the target universe");
  cli.add_option("cases", "",
                 "run the schedule_invariance sweep over N generated cases "
                 "instead of one universe");
  cli.add_option("max-schedules", "0",
                 "stop after this many schedules (0 = exhaustive)");
  cli.add_option("invariants", "core",
                 "battery: comma list of relations,online,monitor,stability,"
                 "compaction,recovery or core/all");
  cli.add_option("repro", "", "explore the universe of a saved repro file");
  cli.add_option("repro-out", "", "write a violating repro to this file");
  cli.add_option("stats-json", "", "write exploration stats to this file");
  cli.add_flag("naive",
               "also count every valid interleaving (serially, capped at "
               "2^22 unless --max-schedules is set) to measure the "
               "reduction");
  cli.add_flag("parallel",
               "split the binding tree over the thread pool");
  cli.add_flag("no-shrink", "report violations without minimizing them");
  if (!cli.parse(argc, argv)) return 2;

  const std::optional<unsigned> mask =
      explore::invariant_mask_from_csv(cli.get("invariants"));
  if (!mask) {
    std::cerr << "unknown invariant in --invariants\n";
    return 2;
  }
  const std::uint64_t max_schedules = cli.get_uint("max-schedules");
  const bool parallel = cli.get_flag("parallel");
  const bool shrink = !cli.get_flag("no-shrink");

  // Sweep mode: the pinned-seed schedule_invariance campaign over small
  // generated cases (what CI asserts zero violations on).
  if (!cli.get("cases").empty()) {
    const std::size_t cases = static_cast<std::size_t>(cli.get_uint("cases"));
    GenLimits limits;
    limits.workload.min_processes = 2;
    limits.workload.max_processes = 4;
    limits.workload.min_events_per_process = 2;
    limits.workload.max_events_per_process = 4;
    std::size_t explored = 0, vacuous = 0, failures = 0;
    const ScheduleInvarianceConfig gate = schedule_invariance_config();
    for (std::size_t i = 0; i < cases; ++i) {
      const std::uint64_t case_seed = case_seed_for(cli.get_uint("seed"), i);
      const CheckCase c = generate_case(case_seed, limits);
      const bool gated = c.process_count() > gate.max_processes ||
                         c.messages.size() > gate.max_messages ||
                         c.total_events() > gate.max_events;
      if (gated) {
        ++vacuous;
        continue;
      }
      ++explored;
      const PropertyResult result =
          run_property_on_case(*find_property("schedule_invariance"), c);
      if (!result.passed) {
        ++failures;
        std::cout << "FAIL case #" << i << " seed " << case_seed << ": "
                  << result.message << "\n";
        report_violation(c, case_seed, result.message, shrink,
                         cli.get("repro-out"));
      }
    }
    std::cout << cases << " cases: " << explored << " explored exhaustively, "
              << vacuous << " above the size gate, " << failures
              << " violations\n";
    return failures == 0 ? 0 : 1;
  }

  // Single-universe mode: a saved repro, or a generated case matching the
  // requested size.
  CheckCase c;
  std::uint64_t case_seed = 0;
  if (!cli.get("repro").empty()) {
    std::ifstream file(cli.get("repro"));
    if (!file) {
      std::cerr << "cannot open repro file: " << cli.get("repro") << "\n";
      return 2;
    }
    try {
      const Repro repro = load_repro(file);
      c = repro.c;
      case_seed = repro.meta.case_seed;
    } catch (const std::exception& e) {
      std::cerr << "bad repro file: " << e.what() << "\n";
      return 2;
    }
  } else {
    const std::size_t procs = static_cast<std::size_t>(cli.get_uint("procs"));
    const std::size_t events =
        static_cast<std::size_t>(cli.get_uint("events"));
    const std::size_t messages =
        static_cast<std::size_t>(cli.get_uint("messages"));
    GenLimits limits;
    limits.workload.min_processes = procs;
    limits.workload.max_processes = procs;
    limits.workload.min_events_per_process = std::min<std::size_t>(2, events);
    limits.workload.max_events_per_process = events;
    bool found = false;
    for (std::size_t i = 0; i < 50000 && !found; ++i) {
      case_seed = case_seed_for(cli.get_uint("seed"), i);
      c = generate_case(case_seed, limits);
      found = c.process_count() == procs && c.messages.size() == messages;
    }
    if (!found) {
      std::cerr << "no generated case matches --procs " << procs
                << " --messages " << messages << " (try another --seed)\n";
      return 2;
    }
    std::cout << "universe from case seed " << case_seed << ": "
              << c.process_count() << " procs / " << c.total_events()
              << " events / " << c.messages.size() << " msgs\n";
  }

  // Lift the property gate to cover this universe, so the shrink predicate
  // sees the same exploration the CLI ran.
  ScheduleInvarianceConfig& cfg = schedule_invariance_config();
  cfg.max_processes = std::max(cfg.max_processes, c.process_count());
  cfg.max_messages = std::max(cfg.max_messages, c.messages.size());
  cfg.max_events = std::max(cfg.max_events, c.total_events());
  cfg.max_schedules =
      max_schedules == 0 ? std::uint64_t{1} << 20 : max_schedules;

  UniverseRun run;
  const bool ok = explore_case(c, *mask, max_schedules, parallel,
                               cli.get_flag("naive"), run);
  print_run(run);
  if (!cli.get("stats-json").empty()) {
    write_stats_json(cli.get("stats-json"), c, run);
  }
  if (!ok) {
    report_violation(c, case_seed, run.violation, shrink,
                     cli.get("repro-out"));
    return 1;
  }
  return 0;
} catch (const ContractViolation& e) {
  // A malformed or out-of-range option: report it, never abort.
  std::cerr << "syncon_explore: " << e.what() << "\n";
  return 2;
}
