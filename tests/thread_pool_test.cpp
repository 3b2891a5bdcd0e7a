#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "counting_new.hpp"
#include "obs/telemetry.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

TEST(ThreadPoolTest, SizedToRequestOrHardware) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  ThreadPool defaulted;
  EXPECT_GE(defaulted.thread_count(), 1u);
  EXPECT_GE(ThreadPool::shared().thread_count(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEachIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t, std::size_t begin,
                                std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForShardingIsStatic) {
  // The shard → index-range mapping is a pure function of (count, shards):
  // two runs see identical boundaries, the contract behind bit-identical
  // parallel aggregates.
  ThreadPool pool(3);
  auto boundaries = [&](std::size_t count) {
    std::vector<std::pair<std::size_t, std::size_t>> out(3);
    pool.parallel_for(count, [&](std::size_t shard, std::size_t begin,
                                 std::size_t end) { out[shard] = {begin, end}; },
                      3);
    return out;
  };
  const auto a = boundaries(100);
  const auto b = boundaries(100);
  EXPECT_EQ(a, b);
  // Contiguous, ordered, complete.
  EXPECT_EQ(a[0].first, 0u);
  EXPECT_EQ(a[0].second, a[1].first);
  EXPECT_EQ(a[1].second, a[2].first);
  EXPECT_EQ(a[2].second, 100u);
}

TEST(ThreadPoolTest, ParallelForRunsEachShardOnOneThreadEveryCall) {
  // Placement is fixed: shard 0 on the caller, shard s >= 1 on worker
  // (s - 1) mod T, on every call. The daemon's shards rely on it to stay
  // on one core across pumps. 7 shards over 3 workers puts two or three
  // shards on each worker.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t shards : {std::size_t{3}, std::size_t{7}}) {
    std::vector<std::thread::id> first;
    for (int call = 0; call < 100; ++call) {
      std::vector<std::thread::id> ran(shards);
      pool.parallel_for(
          10 * shards,
          [&](std::size_t shard, std::size_t, std::size_t) {
            ran[shard] = std::this_thread::get_id();
          },
          shards);
      if (call == 0) first = ran;
      ASSERT_EQ(ran, first) << shards << " shards, call " << call;
    }
    EXPECT_EQ(first[0], caller);
    for (std::size_t s = 1; s < shards; ++s) {
      EXPECT_NE(first[s], caller) << "shard " << s;
      for (std::size_t t = 1; t < s; ++t) {
        // Same worker exactly when (s - 1) and (t - 1) agree mod 3.
        EXPECT_EQ(first[s] == first[t], (s - t) % 3 == 0)
            << "shards " << t << " and " << s;
      }
    }
  }
}

TEST(ThreadPoolTest, JoinWaitsForAShardPastTheSpinBudget) {
  // The caller's shard returns at once and the last worker's shard sleeps,
  // up to 20 spin budgets, so the caller spins out and sleeps on the join
  // until that worker wakes it. The shards write plain memory, as real
  // bodies do: parallel_for's return must order every write before it
  // (ThreadSanitizer checks the edge). Sleeps near the budget put the
  // worker's finish beside the caller's switch from spinning to sleeping,
  // where a lost wake-up would hang the call.
  ThreadPool pool(3);
  constexpr std::size_t kCount = 400;
  for (const std::chrono::microseconds late :
       {ThreadPool::kJoinSpin / 2, ThreadPool::kJoinSpin,
        ThreadPool::kJoinSpin * 2, ThreadPool::kJoinSpin * 20}) {
    for (int call = 0; call < 10; ++call) {
      std::vector<int> hits(kCount, 0);
      bool late_done = false;
      pool.parallel_for(
          kCount,
          [&](std::size_t shard, std::size_t begin, std::size_t end) {
            if (shard == 3) std::this_thread::sleep_for(late);
            for (std::size_t i = begin; i < end; ++i) ++hits[i];
            if (shard == 3) late_done = true;
          },
          4);
      ASSERT_TRUE(late_done) << late.count() << " us, call " << call;
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(hits[i], 1) << late.count() << " us, index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, AWorkerCannotWaitOnItsOwnPool) {
  // A worker's parallel_for on its own pool would wait on the worker
  // itself, so it is a contract violation there instead of a deadlock.
  ThreadPool pool(2);
  std::atomic<int> rejected{0};
  pool.parallel_for(
      3,
      [&](std::size_t shard, std::size_t, std::size_t) {
        if (shard == 0) return;  // the caller's shard: see the next test
        try {
          pool.parallel_for(4, [](std::size_t, std::size_t, std::size_t) {});
        } catch (const ContractViolation&) {
          rejected.fetch_add(1);
        }
      },
      3);
  EXPECT_EQ(rejected.load(), 2);
  // Another pool's worker may use this one.
  ThreadPool outer(1);
  std::atomic<std::size_t> total{0};
  outer.parallel_for(
      2,
      [&](std::size_t shard, std::size_t, std::size_t) {
        if (shard == 0) return;
        pool.parallel_for(8, [&](std::size_t, std::size_t begin,
                                 std::size_t end) {
          total.fetch_add(end - begin);
        });
      },
      2);
  EXPECT_EQ(total.load(), 8u);
}

TEST(ThreadPoolTest, NestedCallFromTheCallersShardIsRejected) {
  // Shard 0 runs on the caller while it holds the pool for the call, so a
  // nested call there would wait on itself; inside another pool's call it
  // is fine.
  ThreadPool pool(2);
  ThreadPool other(1);
  int rejected = 0;
  std::atomic<std::size_t> total{0};
  const auto count = [&](std::size_t, std::size_t begin, std::size_t end) {
    total.fetch_add(end - begin);
  };
  pool.parallel_for(
      3,
      [&](std::size_t shard, std::size_t, std::size_t) {
        if (shard != 0) return;
        try {
          pool.parallel_for(4, count);
        } catch (const ContractViolation&) {
          ++rejected;
        }
        other.parallel_for(5, count);
        // A pool the caller entered further out is still rejected.
        other.parallel_for(1, [&](std::size_t, std::size_t, std::size_t) {
          EXPECT_THROW(pool.parallel_for(4, count), ContractViolation);
        });
      },
      3);
  EXPECT_EQ(rejected, 1);
  EXPECT_EQ(total.load(), 5u);
  // The caller left the pool: it may call it again.
  pool.parallel_for(6, count);
  EXPECT_EQ(total.load(), 11u);
}

TEST(ThreadPoolTest, ConcurrentOwnersAreSerialized) {
  // Two owner threads share one pool: each call still covers its indices
  // exactly once, and no shard of one owner's call runs while a shard of
  // the other's does.
  ThreadPool pool(3);
  constexpr std::size_t kCount = 64;
  std::atomic<int> running[2] = {0, 0};
  std::atomic<int> overlaps{0};
  std::atomic<int> miscounted{0};
  std::latch start(2);
  const auto owner = [&](int me) {
    start.arrive_and_wait();
    for (int call = 0; call < 200; ++call) {
      std::vector<std::atomic<int>> hits(kCount);
      pool.parallel_for(
          kCount,
          [&](std::size_t, std::size_t begin, std::size_t end) {
            running[me].fetch_add(1);
            for (std::size_t i = begin; i < end; ++i) {
              hits[i].fetch_add(1);
              std::this_thread::yield();  // widen the window for overlaps
            }
            if (running[1 - me].load() != 0) overlaps.fetch_add(1);
            running[me].fetch_sub(1);
          },
          4);
      for (const std::atomic<int>& h : hits) {
        if (h.load() != 1) miscounted.fetch_add(1);
      }
    }
  };
  std::thread a(owner, 0);
  std::thread b(owner, 1);
  a.join();
  b.join();
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(miscounted.load(), 0);
}

TEST(ThreadPoolTest, ParallelForAllocatesNothingPerCall) {
  // The handoff publishes one job and joins on one counter: no task
  // objects, no per-call join state (telemetry off).
  obs::set_enabled(false);
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  const std::function<void(std::size_t, std::size_t, std::size_t)> body =
      [&](std::size_t, std::size_t begin, std::size_t end) {
        total.fetch_add(end - begin);
      };
  for (int call = 0; call < 10; ++call) pool.parallel_for(100, body, 4);
  const std::uint64_t before = g_allocations.load();
  for (int call = 0; call < 1000; ++call) pool.parallel_for(100, body, 4);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(total.load(), 1010u * 100u);
}

TEST(ThreadPoolTest, ParallelForHandlesDegenerateShapes) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  // count < shards: the pool must not invent indices.
  pool.parallel_for(2, [&](std::size_t, std::size_t begin, std::size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 2u);
  // Empty range: no body invocation may see a non-empty range.
  pool.parallel_for(0, [&](std::size_t, std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, end);
  });
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t, std::size_t begin, std::size_t) {
                          if (begin > 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // A worker's shard that throws long after the caller stopped spinning
  // and went to sleep on the join.
  EXPECT_THROW(pool.parallel_for(
                   4,
                   [&](std::size_t shard, std::size_t, std::size_t) {
                     if (shard != 3) return;
                     std::this_thread::sleep_for(ThreadPool::kJoinSpin * 20);
                     throw std::runtime_error("late");
                   },
                   4),
               std::runtime_error);
  // The pool survives and stays usable.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(10, [&](std::size_t, std::size_t begin, std::size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 10u);
}

TEST(ThreadPoolTest, RejectsNullWork) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(4, nullptr), ContractViolation);
}

}  // namespace
}  // namespace syncon
