#include "support/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon {

namespace {

// Time a submitted task spent queued before a worker picked it up. Called
// only when obs::enabled() was set at submit time.
void record_task_wait(std::uint64_t wait_us) {
  auto& registry = obs::MetricRegistry::global();
  static obs::Counter& tasks = registry.counter("syncon_pool_tasks_total");
  static obs::Histogram& wait = registry.histogram(
      "syncon_pool_task_wait_us",
      obs::HistogramSpec::exponential(1.0, 65536.0));
  const std::size_t shard = obs::current_thread_slot();
  tasks.add(1, shard);
  wait.record(static_cast<double>(wait_us), shard);
}

// The pool whose worker this thread is (nullptr off the pool): the guard
// against a worker blocking on its own queue.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    Worker& worker = *workers_.emplace_back(std::make_unique<Worker>());
    worker.thread = std::thread([this, &worker] { worker_loop(worker); });
  }
}

ThreadPool::~ThreadPool() {
  for (const std::unique_ptr<Worker>& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mutex);
      w->stopping = true;
    }
    w->wake.notify_one();
  }
  for (const std::unique_ptr<Worker>& w : workers_) w->thread.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const std::size_t k = next_worker_.fetch_add(1, std::memory_order_relaxed);
  enqueue(*workers_[k % workers_.size()], std::move(task));
}

void ThreadPool::enqueue(Worker& worker, std::function<void()> task) {
  SYNCON_REQUIRE(task != nullptr, "submit needs a task");
  if (obs::enabled()) {
    // Wrap to measure queue wait; the extra allocation happens only with
    // telemetry on.
    const std::uint64_t enqueued = obs::now_us();
    task = [enqueued, inner = std::move(task)] {
      record_task_wait(obs::now_us() - enqueued);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(worker.mutex);
    SYNCON_REQUIRE(!worker.stopping, "submit on a stopping pool");
    worker.queue.push_back(std::move(task));
  }
  worker.wake.notify_one();
}

void ThreadPool::worker_loop(Worker& worker) {
  current_pool = this;
  std::unique_lock<std::mutex> lock(worker.mutex);
  for (;;) {
    worker.wake.wait(lock, [&] {
      return worker.stopping || !worker.queue.empty();
    });
    if (worker.queue.empty()) return;  // stopping and drained
    {
      const std::function<void()> task = std::move(worker.queue.front());
      worker.queue.pop_front();
      worker.busy = true;
      lock.unlock();
      task();
    }
    lock.lock();
    worker.busy = false;
    if (worker.queue.empty()) worker.idle.notify_all();
  }
}

void ThreadPool::drain() {
  SYNCON_REQUIRE(current_pool != this,
                 "a worker cannot drain its own pool: it would wait for "
                 "itself");
  for (const std::unique_ptr<Worker>& w : workers_) {
    std::unique_lock<std::mutex> lock(w->mutex);
    w->idle.wait(lock, [&] { return w->queue.empty() && !w->busy; });
  }
}

std::size_t ThreadPool::pending() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Worker>& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mutex);
    n += w->queue.size() + (w->busy ? 1 : 0);
  }
  return n;
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& body,
    std::size_t shards) {
  SYNCON_REQUIRE(body != nullptr, "parallel_for needs a body");
  SYNCON_REQUIRE(current_pool != this,
                 "a worker cannot run parallel_for on its own pool: a shard "
                 "could be queued behind the caller itself");
  if (shards == 0) shards = thread_count();
  shards = std::max<std::size_t>(1, std::min(shards, std::max<std::size_t>(count, 1)));

  // Per-call join state; shared_ptr so stray workers finishing after an
  // exception rethrow can never touch a dead frame.
  struct Join {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr error;
  };
  auto join = std::make_shared<Join>();
  join->remaining = shards - 1;

  // With telemetry on, time each shard so the join can report imbalance.
  // Distinct indices: no synchronization needed beyond the join itself.
  auto durations =
      obs::enabled()
          ? std::make_shared<std::vector<std::uint64_t>>(shards, 0)
          : nullptr;

  auto run_shard = [count, shards, &body, durations](std::size_t shard) {
    const std::size_t begin = shard * count / shards;
    const std::size_t end = (shard + 1) * count / shards;
    if (durations != nullptr) {
      const std::uint64_t t0 = obs::now_us();
      body(shard, begin, end);
      (*durations)[shard] = obs::now_us() - t0;
    } else {
      body(shard, begin, end);
    }
  };

  // Fixed placement: shard s >= 1 always goes to worker (s - 1) mod T.
  for (std::size_t s = 1; s < shards; ++s) {
    enqueue(*workers_[(s - 1) % workers_.size()], [join, run_shard, s] {
      try {
        run_shard(s);
      } catch (...) {
        std::lock_guard<std::mutex> lock(join->mutex);
        if (!join->error) join->error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(join->mutex);
      if (--join->remaining == 0) join->done.notify_all();
    });
  }

  // The caller works too: shard 0 runs here.
  try {
    run_shard(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(join->mutex);
    if (!join->error) join->error = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(join->mutex);
  join->done.wait(lock, [&] { return join->remaining == 0; });
  if (join->error) std::rethrow_exception(join->error);

  if (durations != nullptr) {
    // Recorded at the join, in shard order, on the caller's thread:
    // deterministic sample order regardless of worker scheduling.
    auto& registry = obs::MetricRegistry::global();
    static obs::Counter& calls =
        registry.counter("syncon_pool_parallel_for_total");
    static obs::Histogram& shard_us = registry.histogram(
        "syncon_pool_shard_us",
        obs::HistogramSpec::exponential(1.0, 65536.0));
    static obs::Histogram& imbalance = registry.histogram(
        "syncon_pool_shard_imbalance_us",
        obs::HistogramSpec::exponential(1.0, 65536.0));
    calls.add(1);
    const auto [lo, hi] =
        std::minmax_element(durations->begin(), durations->end());
    for (const std::uint64_t d : *durations) {
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
