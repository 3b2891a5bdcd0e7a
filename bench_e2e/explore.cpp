// explore_4p10m: exhaustive DPOR over the pinned universe that
// `syncon_explore --seed 1 --procs 4 --messages 10` builds, running the core
// invariant battery on every inequivalent schedule — the only workload that
// measures src/explore and src/check.
//
// The universe is pinned, so its class count is a known constant; the run's
// seed draws the X/Y member sets the battery checks, in a fixed shape so the
// work per schedule does not depend on the seed.
#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/case.hpp"
#include "check/driver.hpp"
#include "check/generators.hpp"
#include "explore/explorer.hpp"
#include "explore/invariants.hpp"
#include "harness.hpp"
#include "support/rng.hpp"

namespace bench_e2e {
namespace {

using namespace syncon;

/// Inequivalent schedules of the pinned 4-process / 10-message universe.
constexpr std::uint64_t kPinnedClasses = 1152;

struct Size {
  std::size_t processes;
  std::size_t max_events_per_process;
  std::size_t messages;
};

class Explore final : public Workload {
 public:
  explicit Explore(const Options& options)
      : seed_(options.seed),
        tiny_(options.tiny()),
        size_(tiny_ ? Size{3, 3, 4} : Size{4, 5, 10}) {}

  void setup() override {
    // syncon_explore's case search from master seed 1.
    check::GenLimits limits;
    limits.workload.min_processes = size_.processes;
    limits.workload.max_processes = size_.processes;
    limits.workload.min_events_per_process =
        std::min<std::size_t>(2, size_.max_events_per_process);
    limits.workload.max_events_per_process = size_.max_events_per_process;
    bool found = false;
    for (std::size_t i = 0; i < 50000 && !found; ++i) {
      const check::CheckCase c =
          check::generate_case(check::case_seed_for(1, i), limits);
      if (c.process_count() != size_.processes ||
          c.messages.size() != size_.messages) {
        continue;
      }
      if (const auto m = check::materialize(c)) {
        universe_ = explore::universe_from_execution(*m->exec);
        draw_members(*m->exec);
        found = true;
      }
    }
    if (!found) {
      throw std::runtime_error("explore: no generated case of that size");
    }
    expected_classes_ = tiny_ ? naive_classes() : kPinnedClasses;
  }

  void prepare() override {
    stats_ = {};
    violations_ = 0;
  }

  void execute(Mode mode) override {
    SpanLog* log = nullptr;
    if (mode == Mode::kTraced) {
      spans_.clear();
      log = &spans_;
    }
    ScopedSpan job(log, "job");
    const explore::InvariantOptions invariants{};
    stats_ = explore::explore(
        universe_, explore::ExploreOptions{},
        [&](const explore::Schedule& schedule) {
          ScopedSpan check(log, "check.schedule");
          if (!explore::check_schedule(universe_, schedule, x_, y_,
                                       invariants)
                   .passed) {
            ++violations_;
          }
          return true;
        });
  }

  void verify(Gates& gates) override {
    gates.add(stats_.traces_visited, violations_,
              "explore: schedules violated the core invariants");
    gates.add(1,
              stats_.traces_visited != expected_classes_ ||
                      stats_.budget_exhausted
                  ? 1
                  : 0,
              "explore: inequivalent schedules != " +
                  std::to_string(expected_classes_));
  }

  void after_traced(Gates&) override {
    const double classes = static_cast<double>(stats_.traces_visited);
    samples_.add("explore.executed_per_class",
                 ratio(static_cast<double>(stats_.schedules_executed), classes));
    samples_.add("explore.pruned_per_class",
                 ratio(static_cast<double>(stats_.prefixes_pruned), classes));
    samples_.add("explore.dead_ends_per_class",
                 ratio(static_cast<double>(stats_.dead_ends), classes));
    samples_.add("explore.check_frac",
                 ratio(spans_.total_seconds("check.schedule"),
                       spans_.total_seconds("job")));
    samples_.add("bench.span_coverage_frac", span_coverage(spans_));
  }

  LayerValues layer_metrics(double) override { return samples_.medians(); }

 private:
  /// X takes the first half of a seeded process permutation, Y the rest;
  /// on each process a member run of up to two consecutive events starts at
  /// a seeded offset.
  void draw_members(const Execution& exec) {
    Xoshiro256StarStar rng(seed_);
    std::vector<ProcessId> order(exec.process_count());
    std::iota(order.begin(), order.end(), ProcessId{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    x_.clear();
    y_.clear();
    for (std::size_t i = 0; i < order.size(); ++i) {
      const ProcessId p = order[i];
      const EventIndex n = exec.real_count(p);
      if (n == 0) continue;
      const EventIndex len = std::min<EventIndex>(2, n);
      const auto start = static_cast<EventIndex>(1 + rng.below(n - len + 1));
      std::vector<EventId>& members = i < order.size() / 2 ? x_ : y_;
      for (EventIndex k = 0; k < len; ++k) {
        members.push_back(EventId{p, static_cast<EventIndex>(start + k)});
      }
    }
  }

  std::uint64_t naive_classes() const {
    explore::ExploreOptions naive;
    naive.dpor = false;
    return explore::explore(universe_, naive,
                            [](const explore::Schedule&) { return true; })
        .traces_visited;
  }

  std::uint64_t seed_;
  bool tiny_;
  Size size_;
  explore::Universe universe_;
  std::vector<EventId> x_;
  std::vector<EventId> y_;
  std::uint64_t expected_classes_ = 0;
  explore::ExploreStats stats_;
  std::uint64_t violations_ = 0;
  SpanLog spans_;
  LayerSamples samples_;
};

}  // namespace

std::unique_ptr<Workload> make_explore(const Options& options) {
  return std::make_unique<Explore>(options);
}

}  // namespace bench_e2e
