// E9 (extension) — online vs offline evaluation. The paper's Theorem 20
// budgets assume the whole trace is stamped (forward AND reverse
// timestamps). A runtime monitor only has forward clocks, which keeps
// R1/R2/R3/R4 linear but forces |N_X|·|N_Y| work for R2'/R3'. This bench
// quantifies that gap and the piggybacking protocol's cost.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "online/interval_tracker.hpp"
#include "online/online_evaluator.hpp"
#include "online/online_system.hpp"
#include "relations/fast.hpp"
#include "support/stats.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

constexpr std::size_t kProcesses = 32;
constexpr std::size_t kNX = 16;
constexpr std::size_t kNY = 16;

struct OnlineFixture {
  Execution exec;
  std::unique_ptr<Timestamps> ts;
  OnlineSystem sys;
  std::vector<NonatomicEvent> intervals;
  std::vector<IntervalSummary> summaries;
  std::vector<std::unique_ptr<EventCuts>> cuts;

  OnlineFixture()
      : exec(generate_execution(standard_workload(kProcesses, 100, 11))),
        sys(replay(exec)) {
    ts = std::make_unique<Timestamps>(exec);
    Xoshiro256StarStar rng(5);
    intervals = random_intervals(exec, rng, standard_spec(kNX, 4), 32);
    for (const NonatomicEvent& iv : intervals) {
      IntervalTracker tracker(iv.label());
      for (const EventId& e : iv.events()) tracker.add(sys, e);
      summaries.push_back(tracker.summary());
      cuts.push_back(std::make_unique<EventCuts>(*ts, iv));
    }
  }
};

OnlineFixture& fixture() {
  static OnlineFixture f;
  return f;
}

void print_summary() {
  banner("E9: bench_online_monitor", "extension: runtime monitoring",
         "online (forward-clocks-only) vs offline (Theorem 20) costs");
  OnlineFixture& f = fixture();
  TextTable table({"relation", "offline bound", "online bound",
                   "offline mean cmps", "online mean cmps", "agree"});
  for (const Relation r : kAllRelations) {
    QueryCost off_c, on_c;
    bool agree = true;
    int pairs = 0;
    for (std::size_t x = 0; x < f.intervals.size(); x += 2) {
      for (std::size_t y = 1; y < f.intervals.size(); y += 2) {
        const bool off = evaluate_fast(r, *f.cuts[x], *f.cuts[y], off_c);
        const bool on =
            evaluate_online(r, f.summaries[x], f.summaries[y], on_c);
        agree = agree && off == on;
        ++pairs;
      }
    }
    table.new_row()
        .add_cell(std::string(to_string(r)))
        .add_cell(theorem20_bound(r, kNX, kNY))
        .add_cell(online_cost_bound(r, kNX, kNY))
        .add_cell(static_cast<double>(off_c.integer_comparisons) / pairs, 2)
        .add_cell(static_cast<double>(on_c.integer_comparisons) / pairs, 2)
        .add_cell(agree);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("piggybacking overhead: every message carries |P| = %zu clock "
              "components.\n\n", f.exec.process_count());
}

void BM_OnlineEvaluate(benchmark::State& state) {
  OnlineFixture& f = fixture();
  const auto r = static_cast<Relation>(state.range(0));
  QueryCost counter;
  std::size_t i = 0;
  for (auto _ : state) {
    const bool v = evaluate_online(r, f.summaries[i], f.summaries[i + 1],
                                   counter);
    benchmark::DoNotOptimize(v);
    i = (i + 2) % (f.summaries.size() - 1);
  }
}

void BM_OfflineEvaluate(benchmark::State& state) {
  OnlineFixture& f = fixture();
  const auto r = static_cast<Relation>(state.range(0));
  QueryCost counter;
  std::size_t i = 0;
  for (auto _ : state) {
    const bool v = evaluate_fast(r, *f.cuts[i], *f.cuts[i + 1], counter);
    benchmark::DoNotOptimize(v);
    i = (i + 2) % (f.cuts.size() - 1);
  }
}

void BM_TrackerAdd(benchmark::State& state) {
  OnlineFixture& f = fixture();
  const NonatomicEvent& iv = f.intervals[0];
  for (auto _ : state) {
    IntervalTracker tracker("t");
    for (const EventId& e : iv.events()) tracker.add(f.sys, e);
    benchmark::DoNotOptimize(tracker.event_count());
  }
  state.SetLabel("|X|=" + std::to_string(iv.size()));
}

void BM_ReplayThroughProtocol(benchmark::State& state) {
  OnlineFixture& f = fixture();
  for (auto _ : state) {
    const OnlineSystem sys = replay(f.exec);
    benchmark::DoNotOptimize(sys.total_executed());
  }
  state.SetLabel(std::to_string(f.exec.total_real_count()) + " events");
}

void register_all() {
  for (int r = 0; r < 8; ++r) {
    const std::string name = to_string(static_cast<Relation>(r));
    benchmark::RegisterBenchmark(("online/" + name).c_str(),
                                 BM_OnlineEvaluate)
        ->Arg(r);
    benchmark::RegisterBenchmark(("offline/" + name).c_str(),
                                 BM_OfflineEvaluate)
        ->Arg(r);
  }
  benchmark::RegisterBenchmark("tracker_add", BM_TrackerAdd);
  benchmark::RegisterBenchmark("replay_protocol", BM_ReplayThroughProtocol)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  start_telemetry();
  print_summary();
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  finish_telemetry("bench_online_monitor");
  return 0;
}
