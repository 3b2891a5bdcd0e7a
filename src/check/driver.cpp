#include "check/driver.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <ostream>
#include <utility>

#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace syncon::check {

namespace {

std::vector<const PropertyInfo*> resolve_properties(
    const std::vector<std::string>& names) {
  std::vector<const PropertyInfo*> selected;
  if (names.empty()) {
    for (const PropertyInfo& info : all_properties()) selected.push_back(&info);
    return selected;
  }
  for (const std::string& name : names) {
    const PropertyInfo* info = find_property(name);
    SYNCON_REQUIRE(info != nullptr, "unknown property name");
    selected.push_back(info);
  }
  return selected;
}

std::string size_of(const CheckCase& c) {
  return std::to_string(c.process_count()) + " procs / " +
         std::to_string(c.total_events()) + " events / " +
         std::to_string(c.messages.size()) + " msgs";
}

/// Scoped exhaustive-mode budget: lifts the schedule_invariance walk bound
/// for the run and restores the previous config on exit.
class ExhaustiveBudget {
 public:
  explicit ExhaustiveBudget(bool engage)
      : engaged_(engage), saved_(schedule_invariance_config()) {
    if (engaged_) {
      schedule_invariance_config().max_schedules = std::uint64_t{1} << 20;
    }
  }
  ~ExhaustiveBudget() {
    if (engaged_) schedule_invariance_config() = saved_;
  }
  ExhaustiveBudget(const ExhaustiveBudget&) = delete;
  ExhaustiveBudget& operator=(const ExhaustiveBudget&) = delete;

 private:
  bool engaged_;
  ScheduleInvarianceConfig saved_;
};

}  // namespace

std::uint64_t case_seed_for(std::uint64_t master_seed, std::size_t index) {
  // SplitMix64 advances its state by a fixed gamma per output, so the i-th
  // stream element can be produced directly from a shifted seed.
  constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  return SplitMix64(master_seed + kGamma * index).next();
}

PropertyResult run_property_on_case(const PropertyInfo& property,
                                    const CheckCase& c) {
  try {
    return property.fn(c);
  } catch (const std::exception& e) {
    return {false, std::string("exception: ") + e.what()};
  }
}

DriverReport run_conformance(const DriverOptions& options, std::ostream* log) {
  std::vector<const PropertyInfo*> properties =
      resolve_properties(options.properties);
  if (options.exhaustive) {
    const PropertyInfo* exhaustive_prop = find_property("schedule_invariance");
    const bool selected =
        std::find(properties.begin(), properties.end(), exhaustive_prop) !=
        properties.end();
    if (!selected) properties.push_back(exhaustive_prop);
  }
  const ExhaustiveBudget budget_guard(options.exhaustive);
  SYNCON_REQUIRE(options.max_cases > 0 || options.budget_seconds > 0,
                 "unlimited cases need a time budget");

  DriverReport report;
  const auto start = std::chrono::steady_clock::now();
  const auto out_of_budget = [&] {
    if (options.budget_seconds <= 0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= options.budget_seconds;
  };

  for (std::size_t i = 0;
       (options.max_cases == 0 || i < options.max_cases) && !out_of_budget();
       ++i) {
    const std::uint64_t seed = case_seed_for(options.seed, i);
    const CheckCase c = generate_case(seed, options.limits);
    ++report.cases_run;
    for (const PropertyInfo* property : properties) {
      ++report.property_runs;
      const PropertyResult result = run_property_on_case(*property, c);
      if (result.passed) continue;

      FailureReport failure;
      failure.property = std::string(property->name);
      failure.case_seed = seed;
      failure.case_index = i;
      failure.detail = result.message;
      failure.minimized = c;
      if (log) {
        *log << "FAIL " << property->name << " case #" << i << " seed "
             << seed << " (" << size_of(c) << "): " << result.message
             << '\n';
      }
      if (options.shrink_failures) {
        failure.minimized = shrink_case(
            c,
            [property](const CheckCase& candidate) {
              return run_property_on_case(*property, candidate);
            },
            &failure.shrink_stats);
        if (log) {
          *log << "  shrunk to " << size_of(failure.minimized) << " in "
               << failure.shrink_stats.evaluations << " evaluations ("
               << failure.shrink_stats.accepted << " accepted, "
               << failure.shrink_stats.rounds << " rounds)\n";
        }
      }
      failure.repro = repro_to_string(
          failure.minimized, ReproMeta{failure.property, failure.case_seed});
      report.failures.push_back(std::move(failure));
      if (options.stop_after_failures != 0 &&
          report.failures.size() >= options.stop_after_failures) {
        return report;
      }
    }
    if (log && (i + 1) % 50 == 0) {
      *log << "... " << (i + 1) << " cases, " << report.property_runs
           << " property runs, " << report.failures.size() << " failures\n";
    }
  }
  return report;
}

}  // namespace syncon::check
