#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

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

TEST(ThreadPoolTest, SubmitRunsTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<int> remaining{50};
  std::mutex m;
  std::condition_variable done;
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] {
      ran.fetch_add(1);
      std::lock_guard<std::mutex> lock(m);
      if (--remaining == 0) done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(m);
  done.wait(lock, [&] { return remaining.load() == 0; });
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, DrainWaitsForQueuedAndRunningTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  // Slow head tasks keep workers busy so later submissions are still queued
  // when drain starts — drain must cover both.
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ran.fetch_add(1);
    });
  }
  for (int i = 0; i < 40; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 42);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, DrainOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.drain();  // nothing queued: must not block
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, DrainIsReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 25; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
    pool.drain();
    EXPECT_EQ(ran.load(), (batch + 1) * 25);
  }
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

TEST(ThreadPoolTest, AWorkerCannotWaitOnItsOwnPool) {
  // A worker's parallel_for or drain could wait on the worker's own queue,
  // so both are contract violations there instead of a deadlock.
  ThreadPool pool(2);
  std::atomic<int> rejected{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      try {
        pool.parallel_for(4, [](std::size_t, std::size_t, std::size_t) {});
      } catch (const ContractViolation&) {
        rejected.fetch_add(1);
      }
      try {
        pool.drain();
      } catch (const ContractViolation&) {
        rejected.fetch_add(1);
      }
    });
  }
  pool.drain();
  EXPECT_EQ(rejected.load(), 4);
  // Another pool's worker may use this one.
  ThreadPool outer(1);
  std::atomic<std::size_t> total{0};
  outer.submit([&] {
    pool.parallel_for(8, [&](std::size_t, std::size_t begin, std::size_t end) {
      total.fetch_add(end - begin);
    });
  });
  outer.drain();
  EXPECT_EQ(total.load(), 8u);
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
  // The pool survives and stays usable.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(10, [&](std::size_t, std::size_t begin, std::size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 10u);
}

TEST(ThreadPoolTest, RejectsNullWork) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), ContractViolation);
  EXPECT_THROW(pool.parallel_for(4, nullptr), ContractViolation);
}

}  // namespace
}  // namespace syncon
