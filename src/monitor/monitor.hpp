// Offline synchronization monitor: owns a recorded execution and a set of
// labeled nonatomic events, and answers the application-level queries of
// Problem 4 (which relations hold, which pairs satisfy a condition).
//
// The monitor stamps nothing up front. Its evaluator is stampless: the first
// query seals every registered interval's cut block with two sweeps over the
// execution (Key Idea 1 without a stamp table), and the Timestamps that the
// reference paths, reports and causal traces read are built on the first
// timestamps() call.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/execution.hpp"
#include "model/timestamps.hpp"
#include "monitor/predicate.hpp"
#include "relations/batch.hpp"
#include "relations/evaluator.hpp"
#include "support/thread_pool.hpp"
#include "timing/timing_constraints.hpp"

namespace syncon {

class SyncMonitor {
 public:
  using Handle = RelationEvaluator::Handle;

  /// Takes shared ownership of the execution.
  explicit SyncMonitor(std::shared_ptr<const Execution> exec);

  const Execution& execution() const { return *exec_; }
  /// The execution's stamps, built on first use.
  const Timestamps& timestamps() const { return eval_->timestamps(); }
  const RelationEvaluator& evaluator() const { return *eval_; }

  /// Evaluates scenario queries on `pool` (nullptr restores serial
  /// evaluation). The pool must outlive the monitor; typically
  /// &ThreadPool::shared().
  void use_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Registers an interval under its label (must be unique and non-empty).
  Handle add_interval(NonatomicEvent interval);
  std::size_t interval_count() const;
  const NonatomicEvent& interval(Handle h) const;
  /// Handle of the i-th registered interval (registration order).
  Handle handle_at(std::size_t index) const;
  std::optional<Handle> find(const std::string& label) const;
  /// Handle of a label known to exist (contract otherwise).
  Handle handle(const std::string& label) const;
  std::vector<std::string> labels() const;

  /// Does `condition` hold for the ordered pair (x, y)?
  bool check(const SyncCondition& condition, Handle x, Handle y) const;
  bool check(const std::string& condition, const std::string& x,
             const std::string& y) const;

  /// All ordered pairs (x, y), x != y, satisfying the condition. Runs in
  /// parallel when a thread pool is attached; the pair list (x-major order)
  /// and the cost written to *cost are identical to the serial evaluation.
  std::vector<std::pair<Handle, Handle>> find_pairs(
      const SyncCondition& condition, QueryCost* cost = nullptr) const;

  /// All relations of R holding for (x, y) (Problem 4 ii).
  RelationSet relations_between(Handle x, Handle y) const;

  /// Problem 4(ii) over every ordered pair of registered intervals, sharded
  /// across the attached thread pool (serial when none). The result carries
  /// the exact merged QueryCost of the sweep.
  BatchEvaluator::Result relations_all_pairs(bool pruned = true) const;

  /// Attaches a physical timeline (must belong to the same execution),
  /// enabling quantitative queries.
  void attach_times(std::shared_ptr<const PhysicalTimes> times);
  bool has_times() const { return times_ != nullptr; }
  const PhysicalTimes& times() const;

  /// Checks a relative timing constraint between two labeled intervals
  /// (requires an attached timeline).
  TimingCheckResult check_deadline(const TimingConstraint& constraint,
                                   const std::string& x,
                                   const std::string& y) const;

 private:
  std::shared_ptr<const Execution> exec_;
  std::unique_ptr<RelationEvaluator> eval_;
  std::map<std::string, Handle> by_label_;
  std::shared_ptr<const PhysicalTimes> times_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace syncon
