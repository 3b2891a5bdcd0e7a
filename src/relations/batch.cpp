#include "relations/batch.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace syncon {

std::size_t BatchEvaluator::Result::holding_total() const {
  std::size_t total = 0;
  for (const PairRelations& p : pairs) total += p.relations.holding.size();
  return total;
}

std::size_t BatchEvaluator::Result::evaluated_total() const {
  std::size_t total = 0;
  for (const PairRelations& p : pairs) total += p.relations.evaluated;
  return total;
}

double BatchEvaluator::Result::comparisons_per_query() const {
  const std::size_t queries = evaluated_total();
  if (queries == 0) return 0.0;
  return static_cast<double>(cost.integer_comparisons) /
         static_cast<double>(queries);
}

BatchEvaluator::BatchEvaluator(const RelationEvaluator& eval, ThreadPool* pool)
    : eval_(&eval), pool_(pool) {}

BatchEvaluator::Result BatchEvaluator::all_pairs(bool pruned) const {
  const std::vector<EventHandle> hs = eval_->handles();
  const std::size_t n = hs.size();
  const std::size_t count = ordered_pair_count(n);
  SYNCON_SPAN("batch/sweep");
  eval_->seal();  // once, before the shards read the blocks
  Result result;
  result.pairs.resize(count);

  const std::size_t shards =
      pool_ == nullptr ? 1 : std::min(pool_->thread_count(),
                                      std::max<std::size_t>(count, 1));
  std::vector<QueryCost> shard_costs(shards);

  // Shards are contiguous ranges of pair indices, and every result is
  // written at its pair index.
  auto run_range = [&](std::size_t shard, std::size_t begin, std::size_t end) {
    QueryCost& cost = shard_costs[shard];
    for_each_ordered_pair(
        n, begin, end, [&](std::size_t i, std::size_t x, std::size_t y) {
          PairRelations& out = result.pairs[i];
          out.x = hs[x];
          out.y = hs[y];
          // Per-pair cost lands inside the result; the shard sink keeps the
          // shared tally untouched (no cross-thread cache-line traffic).
          out.relations = pruned ? eval_->all_holding_pruned(out.x, out.y, &cost)
                                 : eval_->all_holding(out.x, out.y, &cost);
        });
  };

  if (shards == 1) {
    run_range(0, 0, count);
  } else {
    pool_->parallel_for(count, run_range, shards);
  }

  // Merge in shard order: deterministic, and exactly the serial total.
  for (const QueryCost& c : shard_costs) result.cost += c;
  result.threads_used = shards;

  if (obs::enabled()) {
    // Per-pair distribution is recorded here, after the join, in pair-index
    // order on shard 0 — the samples (and so every exported total) are
    // bit-identical whether the sweep ran serial or parallel.
    auto& registry = obs::MetricRegistry::global();
    static obs::Counter& sweeps =
        registry.counter("syncon_batch_sweeps_total");
    static obs::Counter& pairs_done =
        registry.counter("syncon_batch_pairs_total");
    static obs::Histogram& per_pair = registry.histogram(
        "syncon_batch_pair_comparisons",
        obs::HistogramSpec::exponential(1.0, 4096.0));
    sweeps.add(1);
    pairs_done.add(result.pairs.size());
    for (const PairRelations& p : result.pairs) {
      per_pair.record(static_cast<double>(p.relations.cost.integer_comparisons));
    }
  }
  return result;
}

}  // namespace syncon
