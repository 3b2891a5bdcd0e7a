// A fixed fork-join team with deterministic static sharding — no task
// queues and no work stealing, by design: parallel_for assigns shard s the
// contiguous index block [s·n/S, (s+1)·n/S), and runs shard 0 on the
// caller and shard s ≥ 1 on worker (s − 1) mod T, so which thread computes
// which item is a pure function of (n, S, T), on every call. Combined with
// per-shard accumulators merged in shard order at the join, parallel runs
// produce bit-identical aggregates to serial runs; a caller that keeps
// state per shard (the service daemon's tenant sessions) has it touched by
// the same thread on every call (see DESIGN.md §3.6).
//
// The join is one atomic counter of unfinished workers. Each worker
// decrements it without a lock; the caller, once its own shard is done,
// spins on it for a short fixed budget and only then sleeps on a condition
// variable, which the last worker signals only if the caller is asleep.
// A join that completes within the budget so costs the caller no futex
// wake-up, and a worker that finishes while the caller spins makes no
// notify.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace syncon {

class ThreadPool {
  using Body = std::function<void(std::size_t shard, std::size_t begin,
                                  std::size_t end)>;

 public:
  /// Spawns `thread_count` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Runs body(shard, begin, end) for shard = 0..shards-1 over a static
  /// contiguous partition of [0, count), blocking until all shards finish.
  /// `shards` defaults (0) to thread_count(). The caller runs shard 0 and
  /// worker w runs shards w + 1, w + 1 + T, …; only workers that own a
  /// shard are woken. After its shard the caller spins up to a fixed
  /// budget (kJoinSpin) for the workers to finish, then sleeps until the
  /// last one does. Allocates nothing with telemetry off, and no pool
  /// thread holds any of the call's work once it returns. Calls from
  /// different threads are serialized. A call from inside this pool — a
  /// worker, or a body running shard 0 — would wait on itself and is a
  /// contract violation. The first exception thrown by any shard is
  /// rethrown here after all shards complete.
  void parallel_for(std::size_t count, const Body& body,
                    std::size_t shards = 0);

  /// Process-wide default pool, sized to the hardware. Lives until exit.
  static ThreadPool& shared();

  /// How long the caller spins on the join before it sleeps.
  static constexpr std::chrono::microseconds kJoinSpin{50};

 private:
  struct Worker {
    std::condition_variable wake;  // it owns a shard of a new job, or stop
    std::thread thread;
  };

  void worker_loop(std::size_t w);
  void run_shard(std::size_t shard);  // captures the shard's exception
  void join();  // spins, then sleeps, until remaining_ reaches 0

  std::mutex call_mutex_;  // one owner's call at a time
  // The job: the caller writes it under mutex_ while no worker runs one,
  // so a woken worker reads it without the lock. error_ changes only under
  // mutex_; remaining_ is set under it at publish, then only decremented.
  std::mutex mutex_;
  std::condition_variable done_;  // remaining_ reached 0, caller asleep
  const Body* body_ = nullptr;
  std::size_t count_ = 0;
  std::size_t shards_ = 0;
  std::size_t active_ = 0;        // workers woken: min(shards − 1, T)
  // Woken workers not finished yet. A worker's decrement releases its
  // shards' writes to the caller, which reads 0 with acquire ordering.
  std::atomic<std::size_t> remaining_{0};
  // Set by the caller, under mutex_, before it sleeps on done_. It and
  // remaining_ are seq_cst: the last worker's decrement and its read of
  // this flag cannot both miss the caller's store and its re-read of
  // remaining_, so either the caller sees 0 or the worker notifies.
  std::atomic<bool> caller_asleep_{false};
  std::uint64_t generation_ = 0;  // one per call
  std::exception_ptr error_;      // the first exception any shard threw
  bool timed_ = false;            // telemetry was on at publish
  std::uint64_t published_us_ = 0;
  std::vector<std::uint64_t> shard_us_;  // per shard, when timed_
  bool stopping_ = false;
  std::vector<Worker> workers_;  // last: the threads read all of the above
};

}  // namespace syncon
