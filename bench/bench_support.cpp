// Support-layer costs that every service pump pays outside the codec and
// the monitor: the fork-join pool's round trip (publish, wake, join) and
// the CRC-32 pass over each frame's payload (DESIGN.md §3.6, §3.15).
//
//   BM_ParallelForRoundTrip/<us>  one parallel_for over 4 blocks on a
//       4-worker pool, the daemon's pump shape on a 4-CPU host (shard 0 on
//       the caller, 3 workers woken), each block busy for <us> µs: /0 is
//       the bare handoff, /19 a `service_small`-sized round, where the
//       time above 19 µs is the handoff and the join.
//   BM_Crc32/<bytes>  one checksum over a payload of that length: 13 and
//       24 bytes are about the mean `service_small` and `service_durable`
//       payloads (18.3 and 28.7 wire bytes per frame, less the 1-byte
//       length and the 4-byte checksum); 18 and 40 lie between and beyond.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "support/crc32.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace syncon;

void BM_ParallelForRoundTrip(benchmark::State& state) {
  constexpr std::size_t kBlocks = 4;
  ThreadPool pool(kBlocks);
  const std::chrono::microseconds busy(state.range(0));
  std::array<std::size_t, kBlocks> ran{};
  const std::function<void(std::size_t, std::size_t, std::size_t)> body =
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        const auto until = std::chrono::steady_clock::now() + busy;
        while (std::chrono::steady_clock::now() < until) {
        }
        ran[shard] += end - begin;
      };
  for (auto _ : state) {
    pool.parallel_for(kBlocks, body, kBlocks);
    benchmark::DoNotOptimize(ran.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ParallelForRoundTrip)
    ->Arg(0)
    ->Arg(19)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Crc32(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(length);
  std::vector<std::uint8_t> payload(length);
  for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(payload.data());
    benchmark::DoNotOptimize(crc32(payload));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_Crc32)->Arg(13)->Arg(18)->Arg(24)->Arg(40);

}  // namespace

BENCHMARK_MAIN();
