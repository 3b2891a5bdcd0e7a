// E-clock — pluggable clock representations under scale (DESIGN.md §3.11):
// sweeps |P| = 64 / 256 / 1024 over the two ClockRep backends measuring
//
//   * the online monotone stamping sweep (per-process running clocks:
//     tick the owner, join the piggybacked clock) — the workload where the
//     TreeClock's pruned joins are sublinear in |P| while the dense backend
//     pays O(|P|) per receive;
//   * offline BasicTimestamps construction (per-event stored clocks — the
//     copies are O(|P|) for every backend, so this column shows the honest
//     overhead, not a win);
//   * the Theorem 19 probe over each backend's cut timestamps (component
//     reads through at(); should be flat across backends);
//   * wire bytes per message for the link codec's chained change-lists
//     (online/wire_codec.hpp) against raw dense serialization.
//
// The stamping workload is locality-heavy: processes talk almost entirely
// within a small cluster, with rare cross-cluster messages. That keeps the
// per-join changed-set small — the regime real systems live in and the one
// arXiv 2201.06325's pruning exploits. (A fully-mixed workload makes every
// join touch ~|P| components, where no sparse representation can beat a
// sequential dense max-loop; the table is only meaningful because the
// script's causal fan-in is sparse.)
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "model/clock.hpp"
#include "obs/metrics.hpp"
#include "model/tree_clock.hpp"
#include "model/vector_clock.hpp"
#include "online/wire_codec.hpp"
#include "relations/fast.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

constexpr int kRoundsPerProcess = 96;

// One step of the online sweep: process `p` executes an event and (src !=
// kNoSrc) absorbs the current clock of process `src`.
struct Step {
  std::uint32_t p;
  std::uint32_t src;
  static constexpr std::uint32_t kNoSrc = 0xffffffffu;
};

constexpr std::uint32_t kClusterSize = 4;

std::vector<Step> cluster_script(std::size_t procs, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Step> script;
  script.reserve(procs * kRoundsPerProcess);
  const auto n = static_cast<std::uint32_t>(procs);
  for (int round = 0; round < kRoundsPerProcess; ++round) {
    for (std::uint32_t p = 0; p < n; ++p) {
      Step s{p, Step::kNoSrc};
      const std::uint64_t roll = rng.below(512);
      const std::uint32_t base = (p / kClusterSize) * kClusterSize;
      const std::uint32_t width = std::min(kClusterSize, n - base);
      if (roll < 448) {
        // Ring neighbor within the cluster.
        s.src = base + (p - base + width - 1) % width;
        if (s.src == p) s.src = Step::kNoSrc;
      } else if (roll < 449) {
        // Rare remote contact. Kept rare on purpose: remote knowledge is
        // re-gossiped through every cluster merge, so even a 3% remote rate
        // makes each join's changed-set approach |P| within a few rounds.
        s.src = static_cast<std::uint32_t>(rng.below(procs));
        if (s.src == p) s.src = Step::kNoSrc;
      }
      script.push_back(s);
    }
  }
  return script;
}

struct SweepResult {
  std::uint64_t checksum = 0;
  double seconds = 0;  // stamping loop only — construction excluded
};

template <ClockRep Clock>
SweepResult run_sweep(std::size_t procs, const std::vector<Step>& script) {
  std::vector<Clock> cur(procs, Clock(procs, 1));
  const auto start = std::chrono::steady_clock::now();
  for (const Step& s : script) {
    Clock& t = cur[s.p];
    t.tick(s.p);
    if (s.src != Step::kNoSrc) t.merge_max(cur[s.src]);
  }
  const auto stop = std::chrono::steady_clock::now();
  SweepResult r;
  for (std::size_t p = 0; p < procs; ++p) r.checksum += cur[p].at(p);
  r.seconds = std::chrono::duration<double>(stop - start).count();
  return r;
}

template <ClockRep Clock>
void BM_OnlineStampSweep(benchmark::State& state) {
  const auto procs = static_cast<std::size_t>(state.range(0));
  const std::vector<Step> script = cluster_script(procs, 42);
  // All backends must agree before we time anything.
  const std::uint64_t expect = run_sweep<VectorClock>(procs, script).checksum;
  if (run_sweep<Clock>(procs, script).checksum != expect) {
    state.SkipWithError("backend sweep diverged from dense");
    return;
  }
  // Manual timing: an online monitor constructs its clocks once and stamps
  // forever, so the per-iteration construction must not count.
  for (auto _ : state) {
    const SweepResult r = run_sweep<Clock>(procs, script);
    benchmark::DoNotOptimize(r.checksum);
    state.SetIterationTime(r.seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(script.size()));
}

template <ClockRep Clock>
void BM_OfflineTimestamps(benchmark::State& state) {
  const auto procs = static_cast<std::size_t>(state.range(0));
  const Execution exec = generate_execution(standard_workload(procs, 8));
  for (auto _ : state) {
    const BasicTimestamps<Clock> ts(exec);
    benchmark::DoNotOptimize(ts.forward_ref(exec.topological_order().back()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(exec.topological_order().size()));
}

template <ClockRep Clock>
void BM_Theorem19Probe(benchmark::State& state) {
  const auto procs = static_cast<std::size_t>(state.range(0));
  const Execution exec = generate_execution(standard_workload(procs, 8));
  const BasicTimestamps<Clock> ts(exec);
  Xoshiro256StarStar rng(271);
  const NonatomicEvent x = random_interval(exec, rng, standard_spec(8, 3), "X");
  const NonatomicEvent y = random_interval(exec, rng, standard_spec(8, 3), "Y");
  const BasicEventCuts<Clock> xc(ts, x), yc(ts, y);
  ComparisonCounter counter;
  for (auto _ : state) {
    const bool v = theorem19_violated(yc.union_past(), xc.intersect_future(),
                                      x.node_set(), counter);
    benchmark::DoNotOptimize(v);
  }
}

void BM_WireBytesPerMessage(benchmark::State& state) {
  const auto procs = static_cast<std::size_t>(state.range(0));
  const std::vector<Step> script = cluster_script(procs, 43);
  // Replay the sweep once, recording the per-process clocks message by
  // message on one link, then measure codec throughput and bytes.
  std::vector<VectorClock> cur(procs, VectorClock(procs, 1));
  std::vector<WireMessage> stream;
  for (const Step& s : script) {
    cur[s.p].tick(s.p);
    if (s.src != Step::kNoSrc) cur[s.p].merge_max(cur[s.src]);
    if (s.p == 0) {
      stream.push_back(WireMessage{
          {0, static_cast<EventIndex>(stream.size() + 1)}, cur[0]});
    }
  }
  std::size_t total_bytes = 0;
  for (auto _ : state) {
    LinkEncoder enc(procs, 16);
    std::vector<std::uint8_t> bytes;
    for (const WireMessage& m : stream) enc.encode(m, bytes);
    total_bytes = bytes.size();
    benchmark::DoNotOptimize(bytes.data());
  }
  std::size_t dense_bytes = 0;
  for (const WireMessage& m : stream) {
    dense_bytes += sizeof(EventId) + m.clock.size() * sizeof(ClockValue);
  }
  const double ratio_pct =
      100.0 * static_cast<double>(total_bytes) /
      static_cast<double>(dense_bytes == 0 ? 1 : dense_bytes);
  state.counters["bytes_per_msg"] = benchmark::Counter(
      static_cast<double>(total_bytes) / static_cast<double>(stream.size()));
  state.counters["dense_bytes_per_msg"] = benchmark::Counter(
      static_cast<double>(dense_bytes) / static_cast<double>(stream.size()));
  state.counters["delta_vs_dense_pct"] = benchmark::Counter(ratio_pct);
  // Publish the per-|P| compression ratio into the telemetry snapshot
  // (SYNCON_BENCH_JSON) alongside the codec's own frame/byte counters,
  // which the timed loop above populated via LinkEncoder::encode.
  if (obs::enabled()) {
    obs::MetricRegistry::global()
        .gauge("syncon_wire_delta_vs_dense_ratio_pct_p" +
               std::to_string(procs))
        .set(ratio_pct);
  }
}

void print_backend_table() {
  banner("E-clock: bench_clock_backends", "clock concept (DESIGN.md §3.11)",
         "online stamping sweep ns/event per backend, |P| = 64/256/1024");
  TextTable table({"|P|", "dense ns/event", "tree ns/event", "tree causal"});
  for (const std::size_t procs : {64u, 256u, 1024u}) {
    const std::vector<Step> script = cluster_script(procs, 42);
    const int reps = procs >= 1024 ? 3 : 10;
    auto time_one = [&](auto tag) {
      using Clock = decltype(tag);
      double seconds = 0;
      std::uint64_t sink = 0;
      for (int i = 0; i < reps; ++i) {
        const SweepResult r = run_sweep<Clock>(procs, script);
        sink += r.checksum;
        seconds += r.seconds;
      }
      benchmark::DoNotOptimize(sink);
      return seconds * 1e9 / static_cast<double>(reps) /
             static_cast<double>(script.size());
    };
    // The sweep keeps every TreeClock on its causal fast path; report it so
    // a regression that silently demotes to dense shows up here.
    std::vector<TreeClock> probe(procs, TreeClock(procs, 1));
    for (const Step& s : script) {
      probe[s.p].tick(s.p);
      if (s.src != Step::kNoSrc) probe[s.p].merge_max(probe[s.src]);
    }
    bool causal = true;
    for (const TreeClock& tc : probe) causal = causal && tc.causal();
    table.new_row()
        .add_cell(procs)
        .add_cell(time_one(VectorClock{}), 1)
        .add_cell(time_one(TreeClock{}), 1)
        .add_cell(causal ? 1 : 0);
  }
  std::printf("%s\n", table.to_string().c_str());
}

BENCHMARK_TEMPLATE(BM_OnlineStampSweep, VectorClock)
    ->Arg(64)->Arg(256)->Arg(1024)->UseManualTime();
BENCHMARK_TEMPLATE(BM_OnlineStampSweep, TreeClock)
    ->Arg(64)->Arg(256)->Arg(1024)->UseManualTime();
BENCHMARK_TEMPLATE(BM_OfflineTimestamps, VectorClock)->Arg(64)->Arg(256);
BENCHMARK_TEMPLATE(BM_OfflineTimestamps, TreeClock)->Arg(64)->Arg(256);
BENCHMARK_TEMPLATE(BM_Theorem19Probe, VectorClock)->Arg(64)->Arg(1024);
BENCHMARK_TEMPLATE(BM_Theorem19Probe, TreeClock)->Arg(64)->Arg(1024);
BENCHMARK(BM_WireBytesPerMessage)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  print_backend_table();
  syncon::bench::start_telemetry();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  syncon::bench::finish_telemetry("bench_clock_backends");
  benchmark::Shutdown();
  return 0;
}
