// BatchEvaluator — the throughput front end for Problem 4(ii) sweeps.
//
// Shards ordered event pairs across a ThreadPool (static contiguous
// sharding, no work stealing) and runs all_holding / all_holding_pruned on
// each pair with per-shard QueryCost accumulation, merged in shard order at
// the join. all_pairs computes each pair from its index, so no pair list is
// built. Because the underlying const queries
// share no mutable state and the per-pair costs are data-independent, the
// parallel sweep returns bit-identical holding sets and exactly the serial
// total comparison count — the Theorem 19/20 budgets stay verifiable at any
// thread count (DESIGN.md §3.6).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "relations/evaluator.hpp"
#include "support/thread_pool.hpp"

namespace syncon {

/// n · (n − 1): the number of ordered pairs (x, y), x != y, over n events.
constexpr std::size_t ordered_pair_count(std::size_t n) {
  return n < 2 ? 0 : n * (n - 1);
}

/// Calls visit(i, x, y) for each position i in [begin, end) of the x-major
/// list of ordered pairs (x, y), x != y, over indices 0..n−1 — the order of
/// BatchEvaluator::all_pairs and SyncMonitor::find_pairs — without building
/// the list.
template <typename Visit>
void for_each_ordered_pair(std::size_t n, std::size_t begin, std::size_t end,
                           Visit&& visit) {
  if (begin >= end) return;
  std::size_t x = begin / (n - 1);
  std::size_t j = begin % (n - 1);  // y, skipping x
  for (std::size_t i = begin; i < end; ++i) {
    visit(i, x, j < x ? j : j + 1);
    if (++j == n - 1) {
      j = 0;
      ++x;
    }
  }
}

class BatchEvaluator {
 public:
  /// One evaluated ordered pair.
  struct PairRelations {
    EventHandle x;
    EventHandle y;
    RelationEvaluator::AllRelationsResult relations;
  };

  /// Outcome of a batch sweep. `cost` is the exact merged total of every
  /// per-pair QueryCost — the explicit replacement for the evaluator's old
  /// hidden counter.
  struct Result {
    /// Pair results in input order (x-major for all_pairs), independent of
    /// scheduling.
    std::vector<PairRelations> pairs;
    /// Merged cost across all shards (== sum of pairs[i].relations.cost).
    QueryCost cost;
    /// Shards the sweep actually used (1 == serial).
    std::size_t threads_used = 1;

    /// Total number of (pair, relation) facts that hold.
    std::size_t holding_total() const;
    /// Total relation evaluations actually performed (post-pruning).
    std::size_t evaluated_total() const;
    /// Mean Theorem-20 comparisons per evaluated relation query.
    double comparisons_per_query() const;
  };

  /// Evaluates with `pool` (nullptr → serial). The evaluator must outlive
  /// the BatchEvaluator; registration must be finished before sweeping.
  explicit BatchEvaluator(const RelationEvaluator& eval,
                          ThreadPool* pool = nullptr);

  const RelationEvaluator& evaluator() const { return *eval_; }

  /// All ordered pairs (x, y), x != y, over the registered events.
  Result all_pairs(bool pruned = true) const;

  /// An explicit pair list (handles must belong to the evaluator).
  Result evaluate_pairs(std::vector<std::pair<EventHandle, EventHandle>> pairs,
                        bool pruned = true) const;

 private:
  const RelationEvaluator* eval_;
  ThreadPool* pool_;
};

}  // namespace syncon
