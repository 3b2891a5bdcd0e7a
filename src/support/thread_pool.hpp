// A small fixed-size thread pool with deterministic static sharding — no
// work stealing, by design: parallel_for assigns shard s the contiguous
// index block [s·n/S, (s+1)·n/S), and runs shard 0 on the caller and shard
// s ≥ 1 on worker (s − 1) mod T. Each worker drains its own FIFO queue, so
// which thread computes which item is a pure function of (n, S, T), on
// every call. Combined with per-shard accumulators merged in shard order at
// the join, parallel runs produce bit-identical aggregates to serial runs;
// a caller that keeps state per shard (the service daemon's tenant
// sessions) has it touched by the same thread on every call (see DESIGN.md
// §3.6).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace syncon {

class ThreadPool {
 public:
  /// Spawns `thread_count` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task on the next worker in turn (round robin). Tasks must
  /// not throw out of the pool via submit — use parallel_for for exception
  /// propagation.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished — every queue is
  /// empty AND no worker is mid-task. The completion barrier submit lacks:
  /// an owner tearing down state that queued tasks reference (daemon
  /// sessions, shared accumulators) must drain first or the workers race
  /// the destructor. Must be called from outside the pool (a worker calling
  /// drain on its own pool would wait for itself; it is a contract
  /// violation). Tasks submitted concurrently with drain may or may not be
  /// covered.
  void drain();

  /// Tasks currently queued or running (a snapshot; racy by nature).
  std::size_t pending() const;

  /// Runs body(shard, begin, end) for shard = 0..shards-1 over a static
  /// contiguous partition of [0, count), blocking until all shards finish.
  /// `shards` defaults (0) to thread_count(). Placement is fixed: the
  /// calling thread executes shard 0 itself, and shard s ≥ 1 runs on worker
  /// (s − 1) mod thread_count(), behind whatever that worker has queued. A
  /// 1-shard call is a plain serial loop with no handoff. A worker must not
  /// call parallel_for on its own pool — it could be waiting on its own
  /// queue — and doing so is a contract violation. The first exception
  /// thrown by any shard is rethrown here after all shards complete.
  void parallel_for(
      std::size_t count,
      const std::function<void(std::size_t shard, std::size_t begin,
                               std::size_t end)>& body,
      std::size_t shards = 0);

  /// Process-wide default pool, sized to the hardware. Lives until exit.
  static ThreadPool& shared();

 private:
  struct Worker {
    mutable std::mutex mutex;
    std::condition_variable wake;  // a task arrived, or the pool is stopping
    std::condition_variable idle;  // the queue emptied with no task running
    std::deque<std::function<void()>> queue;
    bool busy = false;  // a task popped but not yet finished
    bool stopping = false;
    std::thread thread;
  };

  void enqueue(Worker& worker, std::function<void()> task);
  void worker_loop(Worker& worker);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::size_t> next_worker_{0};  // submit's round-robin cursor
};

}  // namespace syncon
