#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon {

namespace {

obs::Histogram& pool_histogram(const char* name) {
  return obs::MetricRegistry::global().histogram(
      name, obs::HistogramSpec::exponential(1.0, 65536.0));
}

// The pools this thread is inside, innermost first: its own pool if it is
// a worker, and each pool whose parallel_for it is running shard 0 of. A
// parallel_for on any of them would wait on this thread.
struct Inside {
  const ThreadPool* pool;
  const Inside* outer;
};
thread_local const Inside* innermost = nullptr;

// One step of a spin-wait: tells the core it is in a busy-wait loop, so it
// yields execution resources to a sibling hyperthread.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t thread_count)
    : workers_(thread_count != 0
                   ? thread_count
                   : std::max(1u, std::thread::hardware_concurrency())) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].thread = std::thread([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopping_ = true;
  lock.unlock();
  for (Worker& w : workers_) w.wake.notify_one();
  for (Worker& w : workers_) w.thread.join();
}

void ThreadPool::worker_loop(std::size_t w) {
  const Inside self{this, nullptr};
  innermost = &self;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    workers_[w].wake.wait(lock, [&] {
      return stopping_ || (generation_ != seen && w < active_);
    });
    if (stopping_) return;
    seen = generation_;
    lock.unlock();
    if (timed_) {
      static obs::Histogram& wait = pool_histogram("syncon_pool_task_wait_us");
      wait.record(static_cast<double>(obs::now_us() - published_us_),
                  obs::current_thread_slot());
    }
    for (std::size_t s = w + 1; s < shards_; s += workers_.size()) {
      run_shard(s);
    }
    const bool last = remaining_.fetch_sub(1) == 1;
    lock.lock();
    // Under mutex_, so the notify cannot fall between the caller's check
    // of remaining_ and its wait.
    if (last && caller_asleep_.load()) done_.notify_one();
  }
}

void ThreadPool::run_shard(std::size_t shard) {
  const std::uint64_t t0 = timed_ ? obs::now_us() : 0;
  try {
    (*body_)(shard, shard * count_ / shards_, (shard + 1) * count_ / shards_);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  if (timed_) shard_us_[shard] = obs::now_us() - t0;
}

void ThreadPool::join() {
  const auto deadline = std::chrono::steady_clock::now() + kJoinSpin;
  for (unsigned spin = 1; remaining_.load(std::memory_order_acquire) != 0;
       ++spin) {
    cpu_relax();
    if (spin % 16 == 0 && std::chrono::steady_clock::now() >= deadline) {
      std::unique_lock<std::mutex> lock(mutex_);
      caller_asleep_.store(true);
      done_.wait(lock, [&] { return remaining_.load() == 0; });
      caller_asleep_.store(false, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::parallel_for(std::size_t count, const Body& body,
                              std::size_t shards) {
  SYNCON_REQUIRE(body != nullptr, "parallel_for needs a body");
  for (const Inside* i = innermost; i != nullptr; i = i->outer) {
    SYNCON_REQUIRE(i->pool != this,
                   "parallel_for from inside its own pool (a worker, or the "
                   "caller's shard): it would wait on itself");
  }
  if (shards == 0) shards = thread_count();
  shards = std::min(shards, std::max<std::size_t>(count, 1));

  const std::lock_guard<std::mutex> call(call_mutex_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    count_ = count;
    shards_ = shards;
    timed_ = obs::enabled();
    if (timed_) {
      published_us_ = obs::now_us();
      shard_us_.assign(shards, 0);
    }
    active_ = std::min(shards - 1, workers_.size());
    remaining_.store(active_, std::memory_order_relaxed);
    ++generation_;
  }
  for (std::size_t w = 0; w < active_; ++w) workers_[w].wake.notify_one();

  const Inside self{this, innermost};
  innermost = &self;
  run_shard(0);  // catches everything, so innermost is always restored
  innermost = self.outer;
  if (remaining_.load(std::memory_order_acquire) != 0) join();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));

  if (timed_) {
    // Recorded at the join, in shard order, on the caller's thread:
    // deterministic sample order regardless of worker scheduling.
    static obs::Counter& calls = obs::MetricRegistry::global().counter(
        "syncon_pool_parallel_for_total");
    static obs::Histogram& shard_us = pool_histogram("syncon_pool_shard_us");
    static obs::Histogram& imbalance =
        pool_histogram("syncon_pool_shard_imbalance_us");
    calls.add(1);
    const auto [lo, hi] =
        std::minmax_element(shard_us_.begin(), shard_us_.end());
    for (const std::uint64_t d : shard_us_) {
      shard_us.record(static_cast<double>(d));
    }
    imbalance.record(static_cast<double>(*hi - *lo));
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace syncon
