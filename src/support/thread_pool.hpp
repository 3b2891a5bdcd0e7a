// A fixed fork-join team with deterministic static sharding — no task
// queues and no work stealing, by design: parallel_for assigns shard s the
// contiguous index block [s·n/S, (s+1)·n/S), and runs shard 0 on the
// caller and shard s ≥ 1 on worker (s − 1) mod T, so which thread computes
// which item is a pure function of (n, S, T), on every call. Combined with
// per-shard accumulators merged in shard order at the join, parallel runs
// produce bit-identical aggregates to serial runs; a caller that keeps
// state per shard (the service daemon's tenant sessions) has it touched by
// the same thread on every call (see DESIGN.md §3.6).
#pragma once

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
  /// shard are woken. Allocates nothing with telemetry off, and no pool
  /// thread holds any of the call's work once it returns. Calls from
  /// different threads are serialized. A call from inside this pool — a
  /// worker, or a body running shard 0 — would wait on itself and is a
  /// contract violation. The first exception thrown by any shard is
  /// rethrown here after all shards complete.
  void parallel_for(std::size_t count, const Body& body,
                    std::size_t shards = 0);

  /// Process-wide default pool, sized to the hardware. Lives until exit.
  static ThreadPool& shared();

 private:
  struct Worker {
    std::condition_variable wake;  // it owns a shard of a new job, or stop
    std::thread thread;
  };

  void worker_loop(std::size_t w);
  void run_shard(std::size_t shard);  // captures the shard's exception

  std::mutex call_mutex_;  // one owner's call at a time
  // The job: the caller writes it under mutex_ while no worker runs one,
  // so a woken worker reads it without the lock. remaining_ and error_
  // change only under mutex_.
  std::mutex mutex_;
  std::condition_variable done_;  // remaining_ reached 0
  const Body* body_ = nullptr;
  std::size_t count_ = 0;
  std::size_t shards_ = 0;
  std::size_t active_ = 0;        // workers woken: min(shards − 1, T)
  std::size_t remaining_ = 0;     // woken workers not finished yet
  std::uint64_t generation_ = 0;  // one per call
  std::exception_ptr error_;      // the first exception any shard threw
  bool timed_ = false;            // telemetry was on at publish
  std::uint64_t published_us_ = 0;
  std::vector<std::uint64_t> shard_us_;  // per shard, when timed_
  bool stopping_ = false;
  std::vector<Worker> workers_;  // last: the threads read all of the above
};

}  // namespace syncon
