// syncon_check — the cross-layer differential fuzzer.
//
// Generates random executions + nonatomic event pairs from a master seed,
// runs the registered conformance properties on each case, and
// delta-debugs every failure down to a minimal self-contained repro
// (printed as a replayable trace_io document plus the seed that made it).
//
//   syncon_check --seed 7 --cases 500          # fixed-size campaign
//   syncon_check --seed 7 --minutes 5          # time-budgeted campaign
//   syncon_check --list                        # registered properties
//   syncon_check --case-seed 123456            # replay one generated case
//   syncon_check --repro failing.trace         # replay a saved repro
//
// Exit status: 0 all properties held, 1 a failure was found, 2 usage error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/driver.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"

namespace {

using namespace syncon;
using namespace syncon::check;

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> names;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) names.push_back(item);
  }
  return names;
}

/// Shared by --case-seed and --repro: run the selected properties on one
/// case, shrink any failure, print its repro. Returns the exit status.
int run_single_case(const CheckCase& c, std::uint64_t case_seed,
                    const std::vector<std::string>& names, bool shrink) {
  std::vector<const PropertyInfo*> selected;
  if (names.empty()) {
    for (const PropertyInfo& info : all_properties()) selected.push_back(&info);
  } else {
    for (const std::string& name : names) {
      const PropertyInfo* info = find_property(name);
      if (!info) {
        std::cerr << "unknown property: " << name << "\n";
        return 2;
      }
      selected.push_back(info);
    }
  }

  int status = 0;
  for (const PropertyInfo* property : selected) {
    const PropertyResult result = run_property_on_case(*property, c);
    if (result.passed) {
      std::cout << "PASS " << property->name << "\n";
      continue;
    }
    status = 1;
    std::cout << "FAIL " << property->name << ": " << result.message << "\n";
    CheckCase minimized = c;
    if (shrink) {
      ShrinkStats stats;
      minimized = shrink_case(
          c,
          [property](const CheckCase& candidate) {
            return run_property_on_case(*property, candidate);
          },
          &stats);
      std::cout << "  shrunk to " << minimized.process_count() << " procs / "
                << minimized.total_events() << " events in "
                << stats.evaluations << " evaluations\n";
    }
    std::cout << repro_to_string(
        minimized, ReproMeta{std::string(property->name), case_seed});
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("syncon_check",
                "Differential conformance fuzzer: random executions vs the "
                "library's reference semantics, with delta-debugged repros.");
  cli.add_option("seed", "1", "master seed of the campaign");
  cli.add_option("cases", "200",
                 "number of cases to generate (0 = until the time budget)");
  cli.add_option("minutes", "0",
                 "wall-clock budget in minutes (0 = no time limit)");
  cli.add_option("properties", "",
                 "comma-separated property names (default: all)");
  cli.add_option("max-failures", "1",
                 "stop after this many failures (0 = collect all)");
  cli.add_option("case-seed", "",
                 "replay ONE generated case from its case seed");
  cli.add_option("repro", "", "replay a repro file saved from a failure");
  cli.add_flag("list", "list the registered properties and exit");
  cli.add_flag("no-shrink", "report failures without minimizing them");
  cli.add_flag("exhaustive",
               "force schedule_invariance into the property set and lift "
               "its schedule budget (full enumeration under the size gate)");
  if (!cli.parse(argc, argv)) return 2;

  if (cli.get_flag("list")) {
    for (const PropertyInfo& info : all_properties()) {
      std::cout << info.name << "\n    " << info.description << "\n";
    }
    return 0;
  }

  const std::vector<std::string> names = split_names(cli.get("properties"));
  const bool shrink = !cli.get_flag("no-shrink");

  if (!cli.get("repro").empty()) {
    std::ifstream file(cli.get("repro"));
    if (!file) {
      std::cerr << "cannot open repro file: " << cli.get("repro") << "\n";
      return 2;
    }
    try {
      const Repro repro = load_repro(file);
      // The repro names its property; an explicit --properties overrides.
      std::vector<std::string> selected = names;
      if (selected.empty() && find_property(repro.meta.property)) {
        selected.push_back(repro.meta.property);
      }
      return run_single_case(repro.c, repro.meta.case_seed, selected, shrink);
    } catch (const std::exception& e) {
      std::cerr << "bad repro file: " << e.what() << "\n";
      return 2;
    }
  }

  if (!cli.get("case-seed").empty()) {
    const std::uint64_t case_seed = cli.get_uint("case-seed");
    return run_single_case(generate_case(case_seed), case_seed, names, shrink);
  }

  DriverOptions options;
  options.seed = cli.get_uint("seed");
  options.max_cases = static_cast<std::size_t>(cli.get_uint("cases"));
  options.budget_seconds = cli.get_double("minutes") * 60.0;
  options.properties = names;
  options.shrink_failures = shrink;
  options.stop_after_failures =
      static_cast<std::size_t>(cli.get_uint("max-failures"));
  options.exhaustive = cli.get_flag("exhaustive");
  if (options.max_cases == 0 && options.budget_seconds <= 0) {
    std::cerr << "--cases 0 needs a --minutes budget\n";
    return 2;
  }

  const DriverReport report = run_conformance(options, &std::cout);
  std::cout << report.cases_run << " cases, " << report.property_runs
            << " property runs, " << report.failures.size() << " failures\n";
  for (const FailureReport& failure : report.failures) {
    std::cout << "--- repro (property " << failure.property << ", replay with "
              << "--case-seed " << failure.case_seed << ") ---\n"
              << failure.repro;
  }
  return report.ok() ? 0 : 1;
} catch (const ContractViolation& e) {
  // A malformed or out-of-range option: report it, never abort.
  std::cerr << "syncon_check: " << e.what() << "\n";
  return 2;
}
