#include "relations/evaluator.hpp"

#include <bit>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "relations/hierarchy.hpp"
#include "support/contracts.hpp"

namespace syncon {

namespace {

// Bit k of a pair's holding mask is kRelationIds[k] (RelationSet's layout).
constexpr auto kRelationIds = all_relation_ids();

std::uint64_t next_evaluator_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Every query cost flows through deposit(), so this one site feeds the
// registry's whole relation-query family. Called only when obs::enabled().
void record_query_metrics(const QueryCost& cost) {
  auto& registry = obs::MetricRegistry::global();
  static obs::Counter& queries =
      registry.counter("syncon_relation_queries_total");
  static obs::Counter& comparisons =
      registry.counter("syncon_relation_integer_comparisons_total");
  static obs::Counter& causality =
      registry.counter("syncon_relation_causality_checks_total");
  static obs::Histogram& per_query = registry.histogram(
      "syncon_relation_comparisons_per_query",
      obs::HistogramSpec::exponential(1.0, 4096.0));
  const std::size_t shard = obs::current_thread_slot();
  queries.add(1, shard);
  comparisons.add(cost.integer_comparisons, shard);
  causality.add(cost.causality_checks, shard);
  per_query.record(static_cast<double>(cost.integer_comparisons), shard);
}

// µs latency of one all_holding / all_holding_pruned evaluation.
void record_evaluate_latency(std::uint64_t us) {
  static obs::Histogram& latency = obs::MetricRegistry::global().histogram(
      "syncon_relation_evaluate_us",
      obs::HistogramSpec::exponential(1.0, 65536.0));
  latency.record(static_cast<double>(us), obs::current_thread_slot());
}

}  // namespace

RelationEvaluator::RelationEvaluator(const Timestamps& ts)
    : ts_(&ts), id_(next_evaluator_id()) {}

EventHandle RelationEvaluator::add_event(NonatomicEvent event) {
  SYNCON_SPAN("relation/register");
  SYNCON_REQUIRE(&event.execution() == &ts_->execution(),
                 "event belongs to a different execution");
  NonatomicEvent begin_proxy = event.proxy_per_node(ProxyKind::Begin);
  NonatomicEvent end_proxy = event.proxy_per_node(ProxyKind::End);
  auto e = std::make_unique<Entry>(Entry{std::move(event),
                                         std::move(begin_proxy),
                                         std::move(end_proxy), nullptr,
                                         nullptr});
  e->begin_cuts = std::make_unique<EventCuts>(*ts_, e->begin_proxy);
  e->end_cuts = std::make_unique<EventCuts>(*ts_, e->end_proxy);
  if (auto g = e->event.proxy_global(ProxyKind::Begin, *ts_)) {
    e->global_begin = std::make_unique<NonatomicEvent>(std::move(*g));
    e->global_begin_cuts = std::make_unique<EventCuts>(*ts_, *e->global_begin);
  }
  if (auto g = e->event.proxy_global(ProxyKind::End, *ts_)) {
    e->global_end = std::make_unique<NonatomicEvent>(std::move(*g));
    e->global_end_cuts = std::make_unique<EventCuts>(*ts_, *e->global_end);
  }
  entries_.push_back(std::move(e));
  return EventHandle(id_, entries_.size() - 1);
}

EventHandle RelationEvaluator::handle_at(std::size_t index) const {
  SYNCON_REQUIRE(index < entries_.size(), "event index out of range");
  return EventHandle(id_, index);
}

std::vector<EventHandle> RelationEvaluator::handles() const {
  std::vector<EventHandle> out;
  out.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out.push_back(EventHandle(id_, i));
  }
  return out;
}

const RelationEvaluator::Entry& RelationEvaluator::entry(EventHandle h) const {
  SYNCON_REQUIRE(h.evaluator_id_ == id_,
                 "handle minted by a different evaluator");
  SYNCON_REQUIRE(h.index_ < entries_.size(), "invalid event handle");
  return *entries_[h.index_];
}

const NonatomicEvent& RelationEvaluator::event(EventHandle h) const {
  return entry(h).event;
}

const NonatomicEvent& RelationEvaluator::proxy(EventHandle h,
                                               ProxyKind kind) const {
  const Entry& e = entry(h);
  return kind == ProxyKind::Begin ? e.begin_proxy : e.end_proxy;
}

const EventCuts& RelationEvaluator::proxy_cuts(EventHandle h,
                                               ProxyKind kind) const {
  return cuts_of(entry(h), kind);
}

const EventCuts& RelationEvaluator::cuts_of(const Entry& e, ProxyKind kind) {
  return kind == ProxyKind::Begin ? *e.begin_cuts : *e.end_cuts;
}

void RelationEvaluator::deposit(const QueryCost& cost, QueryCost* sink) const {
  if (obs::enabled()) record_query_metrics(cost);
  if (sink != nullptr) {
    *sink += cost;
    return;
  }
  tally_integer_comparisons_.fetch_add(cost.integer_comparisons,
                                       std::memory_order_relaxed);
  tally_causality_checks_.fetch_add(cost.causality_checks,
                                    std::memory_order_relaxed);
}

QueryCost RelationEvaluator::accumulated_cost() const {
  QueryCost out;
  out.integer_comparisons =
      tally_integer_comparisons_.load(std::memory_order_relaxed);
  out.causality_checks =
      tally_causality_checks_.load(std::memory_order_relaxed);
  return out;
}

void RelationEvaluator::reset_accumulated_cost() {
  tally_integer_comparisons_.store(0, std::memory_order_relaxed);
  tally_causality_checks_.store(0, std::memory_order_relaxed);
}

bool RelationEvaluator::holds_impl(const RelationId& r, const Entry& x,
                                   const Entry& y, QueryCost& cost) {
  return evaluate_fast(r.relation, cuts_of(x, r.proxy_x),
                       cuts_of(y, r.proxy_y), cost);
}

bool RelationEvaluator::holds(const RelationId& r, EventHandle x,
                              EventHandle y, QueryCost* cost) const {
  QueryCost local;
  const bool value = holds_impl(r, entry(x), entry(y), local);
  deposit(local, cost);
  return value;
}

bool RelationEvaluator::holds_strict(const RelationId& r, EventHandle x,
                                     EventHandle y, QueryCost* cost) const {
  const NonatomicEvent& px = proxy(x, r.proxy_x);
  const NonatomicEvent& py = proxy(y, r.proxy_y);
  // Overlap check over the two sorted event lists.
  bool overlap = false;
  const auto& a = px.events();
  const auto& b = py.events();
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] == b[j]) {
      overlap = true;
      break;
    }
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  if (!overlap) return holds(r, x, y, cost);
  QueryCost local;
  const bool value = evaluate_proxy_naive(r.relation, px, py, *ts_,
                                          Semantics::Strict, &local);
  deposit(local, cost);
  return value;
}

std::optional<bool> RelationEvaluator::holds_global_proxies(
    const RelationId& r, EventHandle x, EventHandle y,
    QueryCost* cost) const {
  const Entry& ex = entry(x);
  const Entry& ey = entry(y);
  const EventCuts* xc = r.proxy_x == ProxyKind::Begin
                            ? ex.global_begin_cuts.get()
                            : ex.global_end_cuts.get();
  const EventCuts* yc = r.proxy_y == ProxyKind::Begin
                            ? ey.global_begin_cuts.get()
                            : ey.global_end_cuts.get();
  if (xc == nullptr || yc == nullptr) return std::nullopt;
  QueryCost local;
  const bool value = evaluate_fast(r.relation, *xc, *yc, local);
  deposit(local, cost);
  return value;
}

bool RelationEvaluator::holds_naive(const RelationId& r, EventHandle x,
                                    EventHandle y, Semantics sem,
                                    QueryCost* cost) const {
  QueryCost local;
  const bool value = evaluate_naive(r.relation, proxy(x, r.proxy_x),
                                    proxy(y, r.proxy_y), *ts_, sem, &local);
  deposit(local, cost);
  return value;
}

RelationEvaluator::AllRelationsResult RelationEvaluator::all_holding(
    EventHandle x, EventHandle y, QueryCost* cost) const {
  SYNCON_SPAN("relation/evaluate");
  const std::uint64_t t0 = obs::enabled() ? obs::now_us() : 0;
  const Entry& ex = entry(x);
  const Entry& ey = entry(y);
  AllRelationsResult result;
  std::uint32_t holding = 0;
  for (std::size_t k = 0; k < kRelationIds.size(); ++k) {
    ++result.evaluated;
    if (holds_impl(kRelationIds[k], ex, ey, result.cost)) holding |= 1u << k;
  }
  result.holding = RelationSet(holding);
  deposit(result.cost, cost);
  if (obs::enabled()) record_evaluate_latency(obs::now_us() - t0);
  return result;
}

RelationEvaluator::AllRelationsResult RelationEvaluator::all_holding_pruned(
    EventHandle x, EventHandle y, QueryCost* cost) const {
  SYNCON_SPAN("relation/evaluate");
  const std::uint64_t t0 = obs::enabled() ? obs::now_us() : 0;
  const Entry& ex = entry(x);
  const Entry& ey = entry(y);
  const ImplicationClosure& closure = implication_closure();

  AllRelationsResult result;
  std::uint32_t holding = 0;
  std::uint32_t undecided = RelationSet::all().mask();
  // Evaluate the lowest undecided relation (declaration order: the strong R1
  // block leads). A true verdict forces everything it implies true, a false
  // one everything that would imply it false.
  while (undecided != 0) {
    const auto k = static_cast<std::size_t>(std::countr_zero(undecided));
    ++result.evaluated;
    if (holds_impl(kRelationIds[k], ex, ey, result.cost)) {
      const std::uint32_t implied = closure.implied_true[k].mask();
      holding |= implied & undecided;
      undecided &= ~implied;
    } else {
      undecided &= ~closure.implied_false[k].mask();
    }
  }
  result.holding = RelationSet(holding);
  deposit(result.cost, cost);
  if (obs::enabled()) record_evaluate_latency(obs::now_us() - t0);
  return result;
}

}  // namespace syncon
