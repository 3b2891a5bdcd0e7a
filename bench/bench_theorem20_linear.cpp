// E4 — reproduces Theorem 20, the paper's headline result: per-relation
// integer-comparison budgets for evaluating R(X, Y).
//
// For every relation the harness reports, over a large random pair sample,
// the measured worst-case comparisons next to (a) the bound we prove sound
// (R1/R1'/R4/R4': min, R2/R3: |N_X|, R2'/R3': |N_Y|) and (b) the bound as
// literally stated in the paper (min for R2'/R3 as well) — the two differ
// only where DESIGN.md §3.3b documents the paper's overclaim. It also
// reports the speedup over the |N_X|·|N_Y| proxy-naive evaluation the paper
// takes as its baseline.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "relations/fast.hpp"
#include "relations/naive.hpp"
#include "support/stats.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

constexpr std::size_t kProcesses = 48;
constexpr std::size_t kEventsPerProcess = 100;
constexpr std::size_t kNX = 24;  // nodes spanned by X
constexpr std::size_t kNY = 12;  // nodes spanned by Y

Substrate& substrate() {
  static Substrate s(standard_workload(kProcesses, kEventsPerProcess),
                     standard_spec(2, 2), 2, 2718);
  return s;
}

void print_theorem20() {
  banner("E4: bench_theorem20_linear", "Theorem 20 (main result)",
         "per-relation comparison budgets, measured vs bounds");
  Substrate& s = substrate();
  Xoshiro256StarStar rng(31337);
  std::printf("|N_X| = %zu, |N_Y| = %zu; 500 random pairs per relation\n\n",
              kNX, kNY);

  TextTable table({"relation", "bound (ours)", "bound (paper)",
                   "max cmps", "mean cmps", ">ours", "proxy-naive checks",
                   "speedup (ops)"});
  for (const Relation r : kAllRelations) {
    IntHistogram fast_hist;
    std::uint64_t proxy_checks = 0;
    std::uint64_t bound_ours = 0, bound_paper = 0;
    for (int trial = 0; trial < 500; ++trial) {
      const NonatomicEvent x =
          random_interval(s.exec, rng, standard_spec(kNX, 3), "X");
      const NonatomicEvent y =
          random_interval(s.exec, rng, standard_spec(kNY, 3), "Y");
      const EventCuts xc(*s.ts, x), yc(*s.ts, y);
      QueryCost fast_c, proxy_c;
      const bool v_fast = evaluate_fast(r, xc, yc, fast_c);
      const bool v_proxy =
          evaluate_proxy_naive(r, x, y, *s.ts, Semantics::Weak, &proxy_c);
      if (v_fast != v_proxy) {
        std::printf("DISAGREEMENT at %s — reproduction bug!\n", to_string(r));
      }
      fast_hist.add(fast_c.integer_comparisons);
      proxy_checks += proxy_c.causality_checks;
      bound_ours = theorem20_bound(r, x.node_count(), y.node_count());
      bound_paper = theorem20_paper_bound(r, x.node_count(), y.node_count());
    }
    const double proxy_mean = static_cast<double>(proxy_checks) / 500.0;
    table.new_row()
        .add_cell(std::string(to_string(r)))
        .add_cell(bound_ours)
        .add_cell(bound_paper)
        .add_cell(fast_hist.max_value())
        .add_cell(fast_hist.mean(), 2)
        .add_cell(fast_hist.count_above(bound_ours))
        .add_cell(proxy_mean, 1)
        .add_cell(proxy_mean / fast_hist.mean(), 1);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "note: for R3 the sound bound is |N_X| and for R2' it is |N_Y| — the\n"
      "paper's min() claim for these two is refuted by the counterexamples\n"
      "in tests/relations_probe_side_test.cpp (DESIGN.md §3.3b).\n\n");
}

// How often would the paper's min-side probing actually return a wrong
// verdict for R2'/R3? (It errs only when the relation holds but the
// violation is invisible on the cheaper side.)
void print_probe_side_error_rate() {
  Substrate& s = substrate();
  Xoshiro256StarStar rng(424242);
  TextTable table({"relation", "pairs", "holds", "min-probe wrong",
                   "error rate when holds"});
  struct Case {
    Relation r;
    bool probe_y_cheaper;  // with |N_Y| < |N_X| the min side is N_Y
  };
  constexpr int kTrials = 2000;
  for (const Relation r : {Relation::R3, Relation::R2p}) {
    // Size the pair so min() picks the UNSOUND side: N_Y for R3 (needs
    // |N_Y| < |N_X|), N_X for R2' (needs |N_X| < |N_Y|).
    const std::size_t span_x = r == Relation::R3 ? kNX : kNY;
    const std::size_t span_y = r == Relation::R3 ? kNY : kNX;
    int holds = 0, wrong = 0;
    for (int t = 0; t < kTrials; ++t) {
      const NonatomicEvent x =
          random_interval(s.exec, rng, standard_spec(span_x, 3), "X");
      const NonatomicEvent y =
          random_interval(s.exec, rng, standard_spec(span_y, 3), "Y");
      const EventCuts xc(*s.ts, x), yc(*s.ts, y);
      QueryCost c;
      const bool truth = evaluate_fast(r, xc, yc, c);
      // The paper's min() probing: choose the smaller node set regardless
      // of soundness.
      const auto& probe = x.node_count() <= y.node_count() ? x.node_set()
                                                           : y.node_set();
      const VectorClock& down =
          r == Relation::R3 ? yc.intersect_past() : yc.union_past();
      const VectorClock& up =
          r == Relation::R3 ? xc.intersect_future() : xc.union_future();
      const bool min_probe = theorem19_violated(down, up, probe, c);
      holds += truth ? 1 : 0;
      wrong += (min_probe != truth) ? 1 : 0;
    }
    table.new_row()
        .add_cell(std::string(to_string(r)))
        .add_cell(kTrials)
        .add_cell(holds)
        .add_cell(wrong)
        .add_cell(holds > 0 ? 100.0 * wrong / holds : 0.0, 1);
  }
  std::printf("min-side probing error rate (pairs sized so min() picks the "
              "unsound side: %zu vs %zu nodes):\n%s\n",
              kNX, kNY, table.to_string().c_str());
}

void BM_FastRelation(benchmark::State& state) {
  Substrate& s = substrate();
  const auto r = static_cast<Relation>(state.range(0));
  Xoshiro256StarStar rng(41);
  const NonatomicEvent x =
      random_interval(s.exec, rng, standard_spec(kNX, 3), "X");
  const NonatomicEvent y =
      random_interval(s.exec, rng, standard_spec(kNY, 3), "Y");
  const EventCuts xc(*s.ts, x), yc(*s.ts, y);
  QueryCost counter;
  for (auto _ : state) {
    const bool v = evaluate_fast(r, xc, yc, counter);
    benchmark::DoNotOptimize(v);
  }
}

void BM_ProxyNaiveRelation(benchmark::State& state) {
  Substrate& s = substrate();
  const auto r = static_cast<Relation>(state.range(0));
  Xoshiro256StarStar rng(41);
  const NonatomicEvent x =
      random_interval(s.exec, rng, standard_spec(kNX, 3), "X");
  const NonatomicEvent y =
      random_interval(s.exec, rng, standard_spec(kNY, 3), "Y");
  for (auto _ : state) {
    const bool v =
        evaluate_proxy_naive(r, x, y, *s.ts, Semantics::Weak);
    benchmark::DoNotOptimize(v);
  }
}

void register_all() {
  for (int r = 0; r < 8; ++r) {
    const std::string name = to_string(static_cast<Relation>(r));
    benchmark::RegisterBenchmark(("fast/" + name).c_str(), BM_FastRelation)
        ->Arg(r);
    benchmark::RegisterBenchmark(("proxy/" + name).c_str(),
                                 BM_ProxyNaiveRelation)
        ->Arg(r);
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_theorem20();
  print_probe_side_error_rate();
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
