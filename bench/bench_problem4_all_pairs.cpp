// E7 — reproduces Key Idea 1 and Problem 4(ii): evaluating all 32 relations
// over every ordered pair of a registered interval set.
//
// Ablations:
//   cached       one-time EventCuts per interval, reused across pairs
//   uncached     EventCuts rebuilt for every pair (no Key Idea 1)
//   pruned       cached + implication-lattice pruning of the 32 queries
//   naive        per-pair quantifier evaluation on proxies (pre-paper)
//   parallel/T   pruned sweep sharded over a T-thread BatchEvaluator; the
//                holding sets and total comparison counts are bit-identical
//                to the serial sweep (verified in the summary below)
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "relations/batch.hpp"
#include "relations/evaluator.hpp"
#include "relations/fast.hpp"
#include "relations/naive.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

constexpr std::size_t kProcesses = 32;
constexpr std::size_t kEventsPerProcess = 120;
constexpr std::size_t kIntervals = 24;

Substrate& substrate() {
  static Substrate s(standard_workload(kProcesses, kEventsPerProcess),
                     standard_spec(12, 6), kIntervals, 888);
  return s;
}

RelationEvaluator& evaluator() {
  // The evaluator is immovable (it owns atomic cost tallies), so construct
  // it in place and register the intervals once.
  static RelationEvaluator eval(*substrate().ts);
  static const bool filled = [] {
    for (const NonatomicEvent& iv : substrate().intervals) eval.add_event(iv);
    return true;
  }();
  (void)filled;
  return eval;
}

bool identical(const BatchEvaluator::Result& a,
               const BatchEvaluator::Result& b) {
  if (a.pairs.size() != b.pairs.size() || !(a.cost == b.cost)) return false;
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    if (a.pairs[i].x != b.pairs[i].x || a.pairs[i].y != b.pairs[i].y ||
        a.pairs[i].relations.holding != b.pairs[i].relations.holding) {
      return false;
    }
  }
  return true;
}

void print_summary() {
  banner("E7: bench_problem4_all_pairs", "Key Idea 1 / Problem 4(ii)",
         "all 32 relations over all ordered interval pairs");
  RelationEvaluator& eval = evaluator();

  const BatchEvaluator serial(eval, nullptr);
  const auto full = serial.all_pairs(/*pruned=*/false);
  const auto pruned = serial.all_pairs(/*pruned=*/true);
  // Determinism cross-check: the parallel sweep must reproduce the serial
  // holding sets and the exact comparison totals at every thread count.
  bool parallel_matches = true;
  std::size_t max_threads_checked = 0;
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const BatchEvaluator parallel(eval, &pool_with(threads));
    parallel_matches =
        parallel_matches && identical(pruned, parallel.all_pairs(true));
    max_threads_checked = threads;
  }

  TextTable table({"metric", "value"});
  table.new_row().add_cell(std::string("intervals")).add_cell(kIntervals);
  table.new_row()
      .add_cell(std::string("ordered pairs"))
      .add_cell(pruned.pairs.size());
  table.new_row()
      .add_cell(std::string("relations holding (total)"))
      .add_cell(full.holding_total());
  table.new_row()
      .add_cell(std::string("relation evaluations, exhaustive"))
      .add_cell(full.evaluated_total());
  table.new_row()
      .add_cell(std::string("relation evaluations, lattice-pruned"))
      .add_cell(pruned.evaluated_total());
  table.new_row()
      .add_cell(std::string("pruning saves"))
      .add_cell(100.0 *
                    (1.0 - static_cast<double>(pruned.evaluated_total()) /
                               static_cast<double>(full.evaluated_total())),
                1);
  table.new_row()
      .add_cell(std::string("integer comparisons, exhaustive sweep"))
      .add_cell(with_thousands(full.cost.integer_comparisons));
  table.new_row()
      .add_cell(std::string("integer comparisons, pruned sweep"))
      .add_cell(with_thousands(pruned.cost.integer_comparisons));
  table.new_row()
      .add_cell(std::string("comparisons per query (pruned)"))
      .add_cell(comparisons_per_query(pruned.cost, pruned.evaluated_total()),
                2);
  table.new_row()
      .add_cell(std::string("parallel == serial (up to " +
                            std::to_string(max_threads_checked) + " threads)"))
      .add_cell(parallel_matches ? std::string("yes (bit-identical)")
                                 : std::string("NO — BUG"));
  std::printf("%s\n", table.to_string().c_str());
}

// Cached: Key Idea 1 — proxies + cut timestamps computed once per interval.
void BM_AllPairsCached(benchmark::State& state) {
  const BatchEvaluator batch(evaluator(), nullptr);
  for (auto _ : state) {
    const auto result = batch.all_pairs(/*pruned=*/false);
    benchmark::DoNotOptimize(result.holding_total());
  }
}

// Pruned: cached + hierarchy propagation.
void BM_AllPairsPruned(benchmark::State& state) {
  const BatchEvaluator batch(evaluator(), nullptr);
  for (auto _ : state) {
    const auto result = batch.all_pairs(/*pruned=*/true);
    benchmark::DoNotOptimize(result.holding_total());
  }
}

// Parallel: the pruned sweep sharded across a thread pool. Compare against
// BM_AllPairsPruned for the speedup; the summary table already verified the
// outputs are bit-identical.
void BM_AllPairsPrunedParallel(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const BatchEvaluator batch(evaluator(), &pool_with(threads));
  for (auto _ : state) {
    const auto result = batch.all_pairs(/*pruned=*/true);
    benchmark::DoNotOptimize(result.holding_total());
  }
  state.SetLabel(std::to_string(threads) + " threads");
}

// Uncached: rebuild the cut timestamps for every pair (ablates Key Idea 1).
void BM_AllPairsUncached(benchmark::State& state) {
  Substrate& s = substrate();
  for (auto _ : state) {
    std::size_t holding = 0;
    for (std::size_t xi = 0; xi < kIntervals; ++xi) {
      for (std::size_t yi = 0; yi < kIntervals; ++yi) {
        if (xi == yi) continue;
        QueryCost cost;
        for (const RelationId& id : all_relation_ids()) {
          const NonatomicEvent px =
              s.intervals[xi].proxy_per_node(id.proxy_x);
          const NonatomicEvent py =
              s.intervals[yi].proxy_per_node(id.proxy_y);
          const EventCuts xc(*s.ts, px), yc(*s.ts, py);
          if (evaluate_fast(id.relation, xc, yc, cost)) ++holding;
        }
      }
    }
    benchmark::DoNotOptimize(holding);
  }
}

// Naive: per-pair quantifier evaluation over proxies (|N_X|·|N_Y| checks).
void BM_AllPairsNaive(benchmark::State& state) {
  Substrate& s = substrate();
  std::vector<NonatomicEvent> begin_proxies, end_proxies;
  for (const NonatomicEvent& iv : s.intervals) {
    begin_proxies.push_back(iv.proxy_per_node(ProxyKind::Begin));
    end_proxies.push_back(iv.proxy_per_node(ProxyKind::End));
  }
  auto proxy_of = [&](std::size_t i, ProxyKind k) -> const NonatomicEvent& {
    return k == ProxyKind::Begin ? begin_proxies[i] : end_proxies[i];
  };
  for (auto _ : state) {
    std::size_t holding = 0;
    for (std::size_t xi = 0; xi < kIntervals; ++xi) {
      for (std::size_t yi = 0; yi < kIntervals; ++yi) {
        if (xi == yi) continue;
        for (const RelationId& id : all_relation_ids()) {
          if (evaluate_proxy_naive(id.relation, proxy_of(xi, id.proxy_x),
                                   proxy_of(yi, id.proxy_y), *s.ts,
                                   Semantics::Weak)) {
            ++holding;
          }
        }
      }
    }
    benchmark::DoNotOptimize(holding);
  }
}

BENCHMARK(BM_AllPairsCached)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllPairsPruned)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllPairsPrunedParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_AllPairsUncached)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllPairsNaive)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Telemetry covers the summary only: left on, its per-query bookkeeping
  // would be timed inside the benchmark loops.
  start_telemetry();
  print_summary();
  obs::set_enabled(false);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  finish_telemetry("bench_problem4_all_pairs");
  return 0;
}
