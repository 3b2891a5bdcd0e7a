// E1 — reproduces Table 1: the eight relations, their quantifier
// definitions, and the derived evaluation conditions. For each relation the
// harness compares the three evaluation tiers on identical inputs:
//   naive        quantifiers over all of X × Y      (|X|·|Y| checks)
//   proxy-naive  quantifiers over per-node extremes (|N_X|·|N_Y| checks)
//   fast         Table 1 column-3 conditions        (Theorem 20 comparisons)
// and verifies they agree while counting their cost-model operations.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "relations/fast.hpp"
#include "relations/naive.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

constexpr std::size_t kProcesses = 32;
constexpr std::size_t kEventsPerProcess = 120;
constexpr std::size_t kIntervalNodes = 16;
constexpr std::size_t kEventsPerNode = 8;
constexpr std::size_t kPairs = 64;

Substrate& substrate() {
  static Substrate s(standard_workload(kProcesses, kEventsPerProcess),
                     standard_spec(kIntervalNodes, kEventsPerNode),
                     2 * kPairs, 999);
  return s;
}

std::vector<const EventCuts*> cuts_pool() {
  static std::vector<std::unique_ptr<EventCuts>> owned = [] {
    std::vector<std::unique_ptr<EventCuts>> v;
    for (const NonatomicEvent& iv : substrate().intervals) {
      v.push_back(std::make_unique<EventCuts>(*substrate().ts, iv));
    }
    return v;
  }();
  std::vector<const EventCuts*> out;
  for (const auto& c : owned) out.push_back(c.get());
  return out;
}

void print_table1() {
  banner("E1: bench_table1_relations", "Table 1",
         "per-relation agreement + operation counts of the three tiers");
  Substrate& s = substrate();
  const auto cuts = cuts_pool();
  TextTable table({"relation", "definition", "holds%", "naive checks/query",
                   "proxy checks/query", "fast cmps/query", "agree"});
  const char* defs[] = {"∀x∀y: x≺y", "∀y∀x: x≺y", "∀x∃y: x≺y",
                        "∃y∀x: x≺y", "∃x∀y: x≺y", "∀y∃x: x≺y",
                        "∃x∃y: x≺y", "∃y∃x: x≺y"};
  int d = 0;
  for (const Relation r : kAllRelations) {
    QueryCost naive_c, proxy_c, fast_c;
    std::size_t holds = 0;
    bool agree = true;
    for (std::size_t i = 0; i < kPairs; ++i) {
      const NonatomicEvent& x = s.intervals[2 * i];
      const NonatomicEvent& y = s.intervals[2 * i + 1];
      const bool v_naive =
          evaluate_naive(r, x, y, *s.ts, Semantics::Weak, &naive_c);
      const bool v_proxy =
          evaluate_proxy_naive(r, x, y, *s.ts, Semantics::Weak, &proxy_c);
      const bool v_fast = evaluate_fast(r, *cuts[2 * i], *cuts[2 * i + 1],
                                        fast_c);
      agree = agree && v_naive == v_proxy && v_proxy == v_fast;
      holds += v_fast ? 1 : 0;
    }
    table.new_row()
        .add_cell(std::string(to_string(r)))
        .add_cell(std::string(defs[d++]))
        .add_cell(100.0 * static_cast<double>(holds) / kPairs, 1)
        .add_cell(static_cast<double>(naive_c.causality_checks) / kPairs, 1)
        .add_cell(static_cast<double>(proxy_c.causality_checks) / kPairs, 1)
        .add_cell(static_cast<double>(fast_c.integer_comparisons) / kPairs, 1)
        .add_cell(agree);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("workload: %zu processes, %zu events; intervals span %zu nodes"
              " x up to %zu events\n\n",
              kProcesses, s.exec.total_real_count(), kIntervalNodes,
              kEventsPerNode);
}

void BM_Naive(benchmark::State& state) {
  Substrate& s = substrate();
  const auto r = static_cast<Relation>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const bool v = evaluate_naive(r, s.intervals[2 * i], s.intervals[2 * i + 1],
                                  *s.ts, Semantics::Weak);
    benchmark::DoNotOptimize(v);
    i = (i + 1) % kPairs;
  }
}

void BM_ProxyNaive(benchmark::State& state) {
  Substrate& s = substrate();
  const auto r = static_cast<Relation>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const bool v = evaluate_proxy_naive(
        r, s.intervals[2 * i], s.intervals[2 * i + 1], *s.ts, Semantics::Weak);
    benchmark::DoNotOptimize(v);
    i = (i + 1) % kPairs;
  }
}

void BM_Fast(benchmark::State& state) {
  const auto cuts = cuts_pool();
  const auto r = static_cast<Relation>(state.range(0));
  QueryCost counter;
  std::size_t i = 0;
  for (auto _ : state) {
    const bool v = evaluate_fast(r, *cuts[2 * i], *cuts[2 * i + 1], counter);
    benchmark::DoNotOptimize(v);
    i = (i + 1) % kPairs;
  }
}

void register_all() {
  for (int r = 0; r < 8; ++r) {
    const std::string name = to_string(static_cast<Relation>(r));
    benchmark::RegisterBenchmark(("naive/" + name).c_str(), BM_Naive)
        ->Arg(r);
    benchmark::RegisterBenchmark(("proxy/" + name).c_str(), BM_ProxyNaive)
        ->Arg(r);
    benchmark::RegisterBenchmark(("fast/" + name).c_str(), BM_Fast)->Arg(r);
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_table1();
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
