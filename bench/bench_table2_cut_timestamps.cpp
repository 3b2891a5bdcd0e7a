// E2 — reproduces Table 2: the four special cuts C1..C4 of a poset event
// and their timestamps. Measures
//   * the optimized computation (per-node extremes only, Corollary 17 +
//     §2.3 shortcut) vs the reference fold over every member event;
//   * the paper's "one-time cost is negligible" claim: cut-timestamp setup
//     cost amortized against relation queries that reuse it (Key Idea 1);
//   * Key Idea 1 without a stamp table: the cut blocks of 192 intervals
//     written by stamping the trace and folding each interval vs by one
//     seal (two sweeps, no stored stamps), at |P| = 32, 128 and 256.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>

#include "bench_common.hpp"
#include "relations/evaluator.hpp"
#include "relations/fast.hpp"
#include "relations/sparse_cuts.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

constexpr std::size_t kProcesses = 32;
constexpr std::size_t kEventsPerProcess = 160;

Substrate& substrate() {
  static Substrate s(standard_workload(kProcesses, kEventsPerProcess),
                     standard_spec(16, 12), 64, 4242);
  return s;
}

// The seal ablation's input at one |P|: 200 events per process and 192
// intervals of 12 nodes, at most 3 events each — offline_trace's shape.
const Substrate& seal_input(std::size_t processes) {
  static std::map<std::size_t, std::unique_ptr<Substrate>> inputs;
  auto& in = inputs[processes];
  if (!in) {
    in = std::make_unique<Substrate>(standard_workload(processes, 200, 1),
                                     standard_spec(12, 3), 192, processes);
  }
  return *in;
}

// The two ways to write every block; each returns a value read from the
// last block, so the work cannot be dropped.
ClockValue stamp_and_fold(const Substrate& in) {
  const Timestamps ts(in.exec);
  RelationEvaluator eval(ts);
  for (const NonatomicEvent& x : in.intervals) eval.add_event(x);
  return eval.proxy_cuts(eval.handle_at(in.intervals.size() - 1),
                         ProxyKind::End)
      .union_future[0];
}

ClockValue seal(const Substrate& in) {
  RelationEvaluator eval(in.exec);
  for (const NonatomicEvent& x : in.intervals) eval.add_event(x);
  eval.seal();
  return eval.proxy_cuts(eval.handle_at(in.intervals.size() - 1),
                         ProxyKind::End)
      .union_future[0];
}

// Fastest of `rounds` runs, in ms.
template <typename Run>
double fastest_ms(const Substrate& in, int rounds, const Run& run) {
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(run(in));
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

void print_seal_ablation() {
  TextTable table({"|P|", "events", "intervals", "stamps + fold (ms)",
                   "seal (ms)", "seal / fold", "components equal"});
  for (const std::size_t processes : {32u, 128u, 256u}) {
    const Substrate& in = seal_input(processes);
    RelationEvaluator folded(*in.ts);
    RelationEvaluator sealed(in.exec);
    for (const NonatomicEvent& x : in.intervals) {
      folded.add_event(x);
      sealed.add_event(x);
    }
    std::size_t equal = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < in.intervals.size(); ++i) {
      for (const ProxyKind kind : {ProxyKind::Begin, ProxyKind::End}) {
        const CutsView a = folded.proxy_cuts(folded.handle_at(i), kind);
        const CutsView b = sealed.proxy_cuts(sealed.handle_at(i), kind);
        for (const auto& [u, v] :
             {std::pair{a.intersect_past, b.intersect_past},
              std::pair{a.union_past, b.union_past},
              std::pair{a.intersect_future, b.intersect_future},
              std::pair{a.union_future, b.union_future}}) {
          for (std::size_t k = 0; k < u.size(); ++k) {
            if (u[k] == v[k]) ++equal;
            ++total;
          }
        }
      }
    }
    const double fold_ms = fastest_ms(in, 5, stamp_and_fold);
    const double seal_ms = fastest_ms(in, 5, seal);
    table.new_row()
        .add_cell(processes)
        .add_cell(in.exec.total_real_count())
        .add_cell(in.intervals.size())
        .add_cell(fold_ms, 2)
        .add_cell(seal_ms, 2)
        .add_cell(seal_ms / fold_ms, 2)
        .add_cell(std::to_string(equal) + " / " + std::to_string(total));
  }
  std::printf("ablation — every interval's C1–C4 block by Timestamps plus a "
              "per-interval fold vs by one seal (fastest of 5):\n%s\n",
              table.to_string().c_str());
}

void print_table2() {
  banner("E2: bench_table2_cut_timestamps", "Table 2",
         "cut-timestamp computation: optimized vs reference; one-time cost");
  Substrate& s = substrate();

  // Verify + count: the optimized path touches |N_X| event timestamps per
  // cut; the reference touches |X|.
  TextTable table({"interval", "|X|", "|N_X|", "optimized = reference",
                   "events touched (opt)", "events touched (ref)"});
  for (std::size_t i = 0; i < 6; ++i) {
    const NonatomicEvent& x = s.intervals[i];
    const EventCuts cuts(*s.ts, x);
    bool equal = true;
    for (const PosetCut which :
         {PosetCut::IntersectPast, PosetCut::UnionPast,
          PosetCut::IntersectFuture, PosetCut::UnionFuture}) {
      equal = equal &&
              cuts.counts(which) == poset_cut_counts_reference(*s.ts, x, which);
    }
    table.new_row()
        .add_cell("I" + std::to_string(i))
        .add_cell(x.size())
        .add_cell(x.node_count())
        .add_cell(equal)
        .add_cell(std::uint64_t{2} * x.node_count())  // least+greatest per node
        .add_cell(std::uint64_t{4} * x.size());       // each member, each cut
  }
  std::printf("%s\n", table.to_string().c_str());

  // Amortization: one-time cut setup vs per-query comparisons.
  const NonatomicEvent& x = s.intervals[0];
  const NonatomicEvent& y = s.intervals[1];
  const EventCuts xc(*s.ts, x), yc(*s.ts, y);
  QueryCost counter;
  for (const Relation r : kAllRelations) {
    (void)evaluate_fast(r, xc, yc, counter);
  }
  std::printf("Key Idea 1: one EventCuts setup costs O(|N_X|·|P|) = %zu·%zu "
              "component ops,\nthen ALL 8 relation queries above cost only "
              "%llu integer comparisons total.\n\n",
              x.node_count(), s.exec.process_count(),
              static_cast<unsigned long long>(counter.integer_comparisons));

  // Ablation: the O(1)-storage sparse variant (§2.3's "only the |N_X|
  // components need to be computed") pays |N| clock lookups per component
  // at query time.
  const SparseEventCuts sx(*s.ts, x), sy(*s.ts, y);
  TextTable ablation({"relation", "dense cmps", "sparse cmps",
                      "sparse/dense"});
  for (const Relation r : kAllRelations) {
    QueryCost dense_c, sparse_c;
    (void)evaluate_fast(r, xc, yc, dense_c);
    (void)evaluate_fast_sparse(r, sx, sy, sparse_c);
    ablation.new_row()
        .add_cell(std::string(to_string(r)))
        .add_cell(dense_c.integer_comparisons)
        .add_cell(sparse_c.integer_comparisons)
        .add_cell(static_cast<double>(sparse_c.integer_comparisons) /
                      static_cast<double>(dense_c.integer_comparisons),
                  1);
  }
  std::printf("ablation — precomputed (dense) vs on-demand (sparse) cut "
              "timestamps, one query each:\n%s\n",
              ablation.to_string().c_str());

  print_seal_ablation();
}

void BM_EventCutsOptimized(benchmark::State& state) {
  Substrate& s = substrate();
  const auto idx = static_cast<std::size_t>(state.range(0));
  const NonatomicEvent& x = s.intervals[idx];
  for (auto _ : state) {
    const EventCuts cuts(*s.ts, x);
    benchmark::DoNotOptimize(cuts.intersect_past()[0]);
  }
  state.SetLabel("|X|=" + std::to_string(x.size()) +
                 " |N_X|=" + std::to_string(x.node_count()));
}

void BM_EventCutsReference(benchmark::State& state) {
  Substrate& s = substrate();
  const auto idx = static_cast<std::size_t>(state.range(0));
  const NonatomicEvent& x = s.intervals[idx];
  for (auto _ : state) {
    for (const PosetCut which :
         {PosetCut::IntersectPast, PosetCut::UnionPast,
          PosetCut::IntersectFuture, PosetCut::UnionFuture}) {
      const VectorClock vc = poset_cut_counts_reference(*s.ts, x, which);
      benchmark::DoNotOptimize(vc[0]);
    }
  }
}

// The trace-wide one-time cost: stamping the whole execution.
void BM_TimestampSetup(benchmark::State& state) {
  const auto processes = static_cast<std::size_t>(state.range(0));
  const Execution exec =
      generate_execution(standard_workload(processes, 100, 777));
  for (auto _ : state) {
    const Timestamps ts(exec);
    benchmark::DoNotOptimize(
        ts.forward_ref(exec.topological_order()[0]).at(0));
  }
  state.SetLabel(std::to_string(exec.total_real_count()) + " events");
}

// Every block of the seal ablation's input, both ways.
void BM_StampAndFold(benchmark::State& state) {
  const Substrate& in = seal_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(stamp_and_fold(in));
  state.SetLabel(std::to_string(in.exec.total_real_count()) + " events");
}

void BM_Seal(benchmark::State& state) {
  const Substrate& in = seal_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(seal(in));
  state.SetLabel(std::to_string(in.exec.total_real_count()) + " events");
}

BENCHMARK(BM_EventCutsOptimized)->DenseRange(0, 3);
BENCHMARK(BM_EventCutsReference)->DenseRange(0, 3);
BENCHMARK(BM_TimestampSetup)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_StampAndFold)->Arg(32)->Arg(128)->Arg(256)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_Seal)->Arg(32)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
