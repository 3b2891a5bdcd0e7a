#include "relations/evaluator.hpp"

#include <array>
#include <optional>
#include <utility>
#include <vector>

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

// The probe of kRelationIds[K], the relation and the proxies fixed at
// compile time. Each member of R gets its own copy of evaluate_fast's
// loops, so the branch predictor learns each member's early exits apart.
// Through one shared copy the 32 members' different exit patterns made the
// exhaustive sweep over offline_trace's 192 intervals take ~1.6 times as
// long, on the same comparisons.
template <std::size_t K>
[[gnu::always_inline]] inline bool probe_at(
    const std::array<CutsView, 2>& vx, const std::array<CutsView, 2>& vy,
    QueryCost& cost) {
  constexpr RelationId id = kRelationIds[K];
  return evaluate_fast(id.relation, vx[static_cast<std::size_t>(id.proxy_x)],
                       vy[static_cast<std::size_t>(id.proxy_y)], cost);
}

// Whether the Defn 2 proxies kx of X and ky of Y share an atomic event:
// both hold at most one event per process, in ascending process order.
bool proxies_overlap(const NonatomicEvent& x, ProxyKind kx,
                     const NonatomicEvent& y, ProxyKind ky) {
  const auto a = x.spans();
  const auto b = y.spans();
  const auto ea = proxy_end(kx);
  const auto eb = proxy_end(ky);
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i].process == b[j].process) {
      if (a[i].*ea == b[j].*eb) return true;
      ++i;
      ++j;
    } else if (a[i].process < b[j].process) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

RelationEvaluator::RelationEvaluator(const Timestamps& ts)
    : exec_(&ts.execution()),
      given_(&ts),
      id_(next_evaluator_id()),
      width_(exec_->process_count()),
      sealed_(true) {}

RelationEvaluator::RelationEvaluator(const Execution& exec)
    : exec_(&exec),
      given_(nullptr),
      id_(next_evaluator_id()),
      width_(exec.process_count()),
      sealed_(false) {}

const Timestamps& RelationEvaluator::timestamps() const {
  if (given_ != nullptr) return *given_;
  std::call_once(built_once_,
                 [this] { built_ = std::make_unique<const Timestamps>(*exec_); });
  return *built_;
}

EventHandle RelationEvaluator::add_event(NonatomicEvent event) {
  SYNCON_SPAN("relation/register");
  SYNCON_REQUIRE(&event.execution() == exec_,
                 "event belongs to a different execution");
  auto cuts = std::make_unique_for_overwrite<ClockValue[]>(8 * width_);
  if (sealed_.load(std::memory_order_relaxed)) {
    const Timestamps& ts = timestamps();
    for (const ProxyKind kind : {ProxyKind::Begin, ProxyKind::End}) {
      ClockValue* c = cuts.get() + (kind == ProxyKind::End ? 4 * width_ : 0);
      const auto end = proxy_end(kind);
      compute_cut_counts(ts, event.spans(), end, end,
                         {c, c + width_, c + 2 * width_, c + 3 * width_});
    }
  }
  entries_.push_back(Entry{std::move(event), std::move(cuts)});
  return EventHandle(id_, entries_.size() - 1);
}

void RelationEvaluator::seal_pending() const {
  const std::lock_guard<std::mutex> lock(seal_mutex_);
  if (sealed_.load(std::memory_order_relaxed) || entries_.empty()) return;
  SYNCON_SPAN("relation/seal");
  std::vector<CutBlock> blocks;
  blocks.reserve(entries_.size());
  for (const Entry& e : entries_) {
    blocks.push_back(CutBlock{e.event.spans(), e.cuts.get()});
  }
  seal_cut_blocks(*exec_, blocks);
  sealed_.store(true, std::memory_order_release);
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
  return entries_[h.index_];
}

CutsView RelationEvaluator::view(const Entry& e, ProxyKind kind) const {
  const std::size_t w = width_;
  const ClockValue* c = e.cuts.get() + (kind == ProxyKind::End ? 4 * w : 0);
  const auto end = proxy_end(kind);
  return CutsView{{c, w},         {c + w, w},         {c + 2 * w, w},
                  {c + 3 * w, w}, e.event.spans(), end, end};
}

std::array<CutsView, 2> RelationEvaluator::views(const Entry& e) const {
  return {view(e, ProxyKind::Begin), view(e, ProxyKind::End)};
}

const NonatomicEvent& RelationEvaluator::event(EventHandle h) const {
  return entry(h).event;
}

NonatomicEvent RelationEvaluator::proxy(EventHandle h, ProxyKind kind) const {
  return entry(h).event.proxy_per_node(kind);
}

CutsView RelationEvaluator::proxy_cuts(EventHandle h, ProxyKind kind) const {
  seal();
  return view(entry(h), kind);
}

RelationEvaluator::PairViews RelationEvaluator::pair_views(
    EventHandle x, EventHandle y) const {
  seal();
  return PairViews{views(entry(x)), views(entry(y))};
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

bool RelationEvaluator::holds(const RelationId& r, EventHandle x,
                              EventHandle y, QueryCost* cost) const {
  seal();
  QueryCost local;
  const bool value = evaluate_fast(r.relation, view(entry(x), r.proxy_x),
                                   view(entry(y), r.proxy_y), local);
  deposit(local, cost);
  return value;
}

bool RelationEvaluator::holds(const RelationId& r, const PairViews& v,
                              QueryCost* cost) const {
  QueryCost local;
  const bool value =
      evaluate_fast(r.relation, v.x[static_cast<std::size_t>(r.proxy_x)],
                    v.y[static_cast<std::size_t>(r.proxy_y)], local);
  deposit(local, cost);
  return value;
}

bool RelationEvaluator::holds_strict(const RelationId& r, EventHandle x,
                                     EventHandle y, QueryCost* cost) const {
  const Entry& ex = entry(x);
  const Entry& ey = entry(y);
  QueryCost local;
  // Without a shared atomic event the weak fast path is exact.
  bool value = false;
  if (proxies_overlap(ex.event, r.proxy_x, ey.event, r.proxy_y)) {
    value = evaluate_naive(r.relation, ex.event, r.proxy_x, ey.event,
                           r.proxy_y, timestamps(), Semantics::Strict, &local);
  } else {
    seal();
    value = evaluate_fast(r.relation, view(ex, r.proxy_x),
                          view(ey, r.proxy_y), local);
  }
  deposit(local, cost);
  return value;
}

std::optional<bool> RelationEvaluator::holds_global_proxies(
    const RelationId& r, EventHandle x, EventHandle y,
    QueryCost* cost) const {
  const Timestamps& ts = timestamps();
  const auto gx = entry(x).event.proxy_global(r.proxy_x, ts);
  if (!gx) return std::nullopt;
  const auto gy = entry(y).event.proxy_global(r.proxy_y, ts);
  if (!gy) return std::nullopt;
  QueryCost local;
  const bool value = evaluate_fast(r.relation, EventCuts(ts, *gx),
                                   EventCuts(ts, *gy), local);
  deposit(local, cost);
  return value;
}

bool RelationEvaluator::holds_naive(const RelationId& r, EventHandle x,
                                    EventHandle y, Semantics sem,
                                    QueryCost* cost) const {
  QueryCost local;
  const bool value = evaluate_naive(r.relation, entry(x).event, r.proxy_x,
                                    entry(y).event, r.proxy_y, timestamps(),
                                    sem, &local);
  deposit(local, cost);
  return value;
}

RelationEvaluator::AllRelationsResult RelationEvaluator::all_holding(
    EventHandle x, EventHandle y, QueryCost* cost) const {
  seal();
  const std::array<CutsView, 2> vx = views(entry(x));
  const std::array<CutsView, 2> vy = views(entry(y));
  AllRelationsResult result;
  std::uint32_t holding = 0;
  [&]<std::size_t... K>(std::index_sequence<K...>) {
    ((holding |= probe_at<K>(vx, vy, result.cost) ? 1u << K : 0u), ...);
  }(std::make_index_sequence<kRelationIds.size()>{});
  result.evaluated = kRelationIds.size();
  result.holding = RelationSet(holding);
  deposit(result.cost, cost);
  return result;
}

RelationEvaluator::AllRelationsResult RelationEvaluator::all_holding_pruned(
    EventHandle x, EventHandle y, QueryCost* cost) const {
  seal();
  const std::array<CutsView, 2> vx = views(entry(x));
  const std::array<CutsView, 2> vy = views(entry(y));
  const ImplicationClosure& closure = implication_closure();

  AllRelationsResult result;
  std::uint32_t holding = 0;
  std::uint32_t undecided = RelationSet::all().mask();
  // A true verdict forces everything it implies true, a false one
  // everything that would imply it false; both sets contain k itself.
  const auto settle = [&](std::size_t k, bool verdict) {
    ++result.evaluated;
    if (verdict) {
      const std::uint32_t implied = closure.implied_true[k].mask();
      holding |= implied & undecided;
      undecided &= ~implied;
    } else {
      undecided &= ~closure.implied_false[k].mask();
    }
  };
  // Evaluate the undecided relations in declaration order (the strong R1
  // block leads). A verdict settles only k and relations after it, so this
  // is the lowest-undecided-first walk, with one inlined probe per member.
  [&]<std::size_t... K>(std::index_sequence<K...>) {
    ((undecided >> K & 1u ? settle(K, probe_at<K>(vx, vy, result.cost))
                          : void()),
     ...);
  }(std::make_index_sequence<kRelationIds.size()>{});
  result.holding = RelationSet(holding);
  deposit(result.cost, cost);
  return result;
}

}  // namespace syncon
