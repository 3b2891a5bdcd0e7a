#include "monitor/monitor.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon {

SyncMonitor::SyncMonitor(std::shared_ptr<const Execution> exec)
    : exec_(std::move(exec)) {
  SYNCON_REQUIRE(exec_ != nullptr, "monitor needs an execution");
  eval_ = std::make_unique<RelationEvaluator>(*exec_);
}

SyncMonitor::Handle SyncMonitor::add_interval(NonatomicEvent interval) {
  SYNCON_REQUIRE(&interval.execution() == exec_.get(),
                 "interval belongs to a different execution");
  const std::string& label = interval.label();
  SYNCON_REQUIRE(!label.empty(), "monitored intervals need a label");
  SYNCON_REQUIRE(!by_label_.count(label),
                 "duplicate interval label '" + label + "'");
  const Handle h = eval_->add_event(std::move(interval));
  by_label_.emplace(eval_->event(h).label(), h);
  return h;
}

std::size_t SyncMonitor::interval_count() const {
  return eval_->event_count();
}

const NonatomicEvent& SyncMonitor::interval(Handle h) const {
  return eval_->event(h);
}

SyncMonitor::Handle SyncMonitor::handle_at(std::size_t index) const {
  return eval_->handle_at(index);
}

std::optional<SyncMonitor::Handle> SyncMonitor::find(
    const std::string& label) const {
  const auto it = by_label_.find(label);
  if (it == by_label_.end()) return std::nullopt;
  return it->second;
}

SyncMonitor::Handle SyncMonitor::handle(const std::string& label) const {
  const auto h = find(label);
  SYNCON_REQUIRE(h.has_value(), "no interval labeled '" + label + "'");
  return *h;
}

std::vector<std::string> SyncMonitor::labels() const {
  std::vector<std::string> out;
  out.reserve(by_label_.size());
  for (const auto& [label, handle] : by_label_) out.push_back(label);
  return out;
}

bool SyncMonitor::check(const SyncCondition& condition, Handle x,
                        Handle y) const {
  return condition.evaluate(*eval_, x, y);
}

bool SyncMonitor::check(const std::string& condition, const std::string& x,
                        const std::string& y) const {
  return check(SyncCondition::parse(condition), handle(x), handle(y));
}

std::vector<std::pair<SyncMonitor::Handle, SyncMonitor::Handle>>
SyncMonitor::find_pairs(const SyncCondition& condition,
                        QueryCost* cost) const {
  const std::vector<Handle> hs = eval_->handles();
  const std::size_t n = hs.size();
  const std::size_t count = ordered_pair_count(n);
  eval_->seal();  // once, before the shards read the blocks

  const std::size_t shards =
      pool_ == nullptr ? 1 : std::min(pool_->thread_count(),
                                      std::max<std::size_t>(count, 1));
  std::vector<std::vector<std::pair<Handle, Handle>>> matched(shards);
  std::vector<QueryCost> shard_costs(shards);
  auto run_range = [&](std::size_t shard, std::size_t begin,
                       std::size_t end) {
    for_each_ordered_pair(
        n, begin, end, [&](std::size_t, std::size_t x, std::size_t y) {
          if (condition.evaluate(*eval_, hs[x], hs[y], &shard_costs[shard])) {
            matched[shard].emplace_back(hs[x], hs[y]);
          }
        });
  };
  if (shards == 1) {
    run_range(0, 0, count);
  } else {
    pool_->parallel_for(count, run_range, shards);
  }

  // Concatenate in shard order: shards are contiguous x-major ranges, so
  // the output order matches the serial scan exactly.
  std::vector<std::pair<Handle, Handle>> out;
  QueryCost total;
  for (std::size_t s = 0; s < shards; ++s) {
    out.insert(out.end(), matched[s].begin(), matched[s].end());
    total += shard_costs[s];
  }
  if (cost != nullptr) {
    *cost += total;
  } else {
    eval_->charge(total);  // keep accumulated_cost() meaningful
  }
  return out;
}

RelationSet SyncMonitor::relations_between(Handle x, Handle y) const {
  // One span per single query; a sweep has only its batch/sweep span.
  SYNCON_SPAN("relation/evaluate");
  return eval_->all_holding_pruned(x, y).holding;
}

BatchEvaluator::Result SyncMonitor::relations_all_pairs(bool pruned) const {
  return BatchEvaluator(*eval_, pool_).all_pairs(pruned);
}

void SyncMonitor::attach_times(std::shared_ptr<const PhysicalTimes> times) {
  SYNCON_REQUIRE(times != nullptr, "attach_times needs a timeline");
  SYNCON_REQUIRE(&times->execution() == exec_.get(),
                 "timeline belongs to a different execution");
  times_ = std::move(times);
}

const PhysicalTimes& SyncMonitor::times() const {
  SYNCON_REQUIRE(times_ != nullptr, "no timeline attached");
  return *times_;
}

TimingCheckResult SyncMonitor::check_deadline(
    const TimingConstraint& constraint, const std::string& x,
    const std::string& y) const {
  return check_constraint(times(), constraint, interval(handle(x)),
                          interval(handle(y)));
}

}  // namespace syncon
