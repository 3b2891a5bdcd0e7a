#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "helpers.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/evaluator.hpp"
#include "sim/interval_picker.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

using testing::property_sweep;
using testing::two_process_message;

TEST(RelationSetTest, IteratesInAllRelationIdsOrder) {
  const auto ids = all_relation_ids();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(relation_index(ids[k]), k);
    EXPECT_EQ(relation_at(k), ids[k]);
  }
  const std::vector<RelationId> everything = RelationSet::all();
  EXPECT_EQ(everything, std::vector<RelationId>(ids.begin(), ids.end()));

  const RelationSet some((1u << 31) | (1u << 5) | 1u);
  std::vector<RelationId> seen;
  for (const RelationId id : some) seen.push_back(id);
  EXPECT_EQ(seen, (std::vector<RelationId>{ids[0], ids[5], ids[31]}));
  EXPECT_EQ(static_cast<std::vector<RelationId>>(some), seen);
}

TEST(RelationSetTest, SizeContainsAndEquality) {
  const auto ids = all_relation_ids();
  const RelationSet some((1u << 31) | (1u << 5) | 1u);
  EXPECT_EQ(some.size(), 3u);
  EXPECT_FALSE(some.empty());
  EXPECT_TRUE(some.contains(ids[5]));
  EXPECT_FALSE(some.contains(ids[6]));
  EXPECT_EQ(some, RelationSet(some.mask()));
  EXPECT_NE(some, RelationSet(some.mask() ^ 2u));
  EXPECT_EQ(RelationSet::all().size(), 32u);

  const RelationSet none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(none.begin() == none.end());
  EXPECT_TRUE(static_cast<std::vector<RelationId>>(none).empty());
}

// Problem 4(ii) queries hand back a value: neither sweep allocates, with a
// cost sink or through the shared tally.
TEST(RelationEvaluatorTest, AllHoldingQueriesAllocateNothing) {
  WorkloadConfig cfg;
  cfg.process_count = 8;
  cfg.events_per_process = 30;
  cfg.seed = 5;
  const Execution exec = generate_execution(cfg);
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(55);
  IntervalSpec spec;
  spec.node_count = 4;
  spec.max_events_per_node = 3;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));

  QueryCost cost;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const auto full = eval.all_holding(hx, hy, &cost);
  const auto pruned = eval.all_holding_pruned(hx, hy, &cost);
  const auto tallied = eval.all_holding_pruned(hy, hx);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(full.holding, pruned.holding);
  EXPECT_EQ(cost, full.cost + pruned.cost);
  EXPECT_EQ(eval.accumulated_cost(), tallied.cost);
}

TEST(RelationEvaluatorTest, RegistersEventsAndProxies) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  const auto h = eval.add_event(
      NonatomicEvent(exec, {EventId{0, 1}, EventId{0, 3}, EventId{1, 1}},
                     "act"));
  EXPECT_EQ(eval.event_count(), 1u);
  EXPECT_EQ(eval.event(h).label(), "act");
  EXPECT_EQ(eval.proxy(h, ProxyKind::Begin).events(),
            (std::vector<EventId>{{0, 1}, {1, 1}}));
  EXPECT_EQ(eval.proxy(h, ProxyKind::End).events(),
            (std::vector<EventId>{{0, 3}, {1, 1}}));
  // A proxy's cuts are the proxy's own, read through the event's spans:
  // each node's kept member serves as both its least and greatest.
  for (const ProxyKind kind : {ProxyKind::Begin, ProxyKind::End}) {
    const NonatomicEvent proxy = eval.proxy(h, kind);
    const EventCuts own(ts, proxy);
    const CutsView view = eval.proxy_cuts(h, kind);
    EXPECT_TRUE(std::ranges::equal(view.intersect_past,
                                   own.intersect_past().values()));
    EXPECT_TRUE(
        std::ranges::equal(view.union_past, own.union_past().values()));
    EXPECT_TRUE(std::ranges::equal(view.intersect_future,
                                   own.intersect_future().values()));
    EXPECT_TRUE(
        std::ranges::equal(view.union_future, own.union_future().values()));
    EXPECT_EQ(view.spans.data(), eval.event(h).spans().data());
    ASSERT_EQ(view.spans.size(), proxy.spans().size());
    for (std::size_t i = 0; i < view.spans.size(); ++i) {
      EXPECT_EQ(view.spans[i].process, proxy.spans()[i].process);
      EXPECT_EQ(view.spans[i].*view.least, proxy.spans()[i].least);
      EXPECT_EQ(view.spans[i].*view.greatest, proxy.spans()[i].greatest);
    }
  }
}

// Registration writes one block per interval and builds nothing else (no
// proxy, no per-proxy cuts, no Defn 3 proxy); every query reads the blocks
// and the events' spans in place.
TEST(RelationEvaluatorTest, RegistrationAllocatesOneBlock) {
  WorkloadConfig cfg;
  cfg.process_count = 32;
  cfg.events_per_process = 20;
  cfg.seed = 9;
  const Execution exec = generate_execution(cfg);
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(99);
  IntervalSpec spec;
  spec.node_count = 12;
  spec.max_events_per_node = 3;
  constexpr std::size_t kCount = 64;
  std::vector<NonatomicEvent> intervals;
  for (std::size_t k = 0; k <= kCount; ++k) {
    intervals.push_back(
        random_interval(exec, rng, spec, "W" + std::to_string(k)));
    ASSERT_EQ(intervals.back().node_count(), 12u);
  }
  // Also a proxy-sharing twin of the first, so holds_strict takes its
  // naive fallback.
  intervals.push_back(NonatomicEvent(exec, intervals[0].events(), "Z"));
  eval.add_event(std::move(intervals[0]));  // warm-up

  std::uint64_t total = 0;
  for (std::size_t k = 1; k < intervals.size(); ++k) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    eval.add_event(std::move(intervals[k]));
    const std::uint64_t made =
        g_allocations.load(std::memory_order_relaxed) - before;
    // The block, plus at most the entry deque's next node and its map.
    EXPECT_LE(made, 3u) << "registration " << k;
    total += made;
  }
  // Amortized: one block each, and a deque node per few entries.
  EXPECT_LE(total, (intervals.size() - 1) * 3 / 2);

  const EventHandle x = eval.handle_at(0);
  const EventHandle y = eval.handle_at(1);
  const EventHandle twin = eval.handle_at(kCount + 1);
  QueryCost cost;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const RelationId& id : all_relation_ids()) {
    (void)eval.holds(id, x, y, &cost);
    (void)eval.holds(id, y, x);
    (void)eval.holds_naive(id, x, y, Semantics::Weak, &cost);
    (void)eval.holds_naive(id, x, twin, Semantics::Strict);
    (void)eval.holds_strict(id, x, y, &cost);
    (void)eval.holds_strict(id, x, twin, &cost);
  }
  (void)eval.all_holding(x, y, &cost);
  (void)eval.all_holding_pruned(x, twin, &cost);
  (void)eval.all_holding_pruned(y, x);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_GT(cost.causality_checks, 0u);  // the strict fallback ran
}

// The Defn 3 proxies are computed per holds_global_proxies call; the
// verdict and cost equal evaluate_fast over the proxies proxy_global builds
// and their own EventCuts, and a missing proxy on either side is nullopt
// at no cost.
TEST(RelationEvaluatorTest, GlobalProxiesComputedOnDemand) {
  std::size_t present = 0;
  std::size_t x_missing = 0;
  std::size_t y_missing = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SYNCON_SEED_TRACE(seed);
    WorkloadConfig cfg;
    cfg.process_count = 3 + seed % 4;
    cfg.events_per_process = 10;
    cfg.seed = seed;
    const Execution exec = generate_execution(cfg);
    const Timestamps ts(exec);
    RelationEvaluator eval(ts);
    Xoshiro256StarStar rng(seed ^ 0x3d3d);
    IntervalSpec spec;
    spec.node_count = 1 + seed % 3;
    spec.max_events_per_node = 2;
    const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
    const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));
    for (const RelationId& id : all_relation_ids()) {
      const auto gx = eval.event(hx).proxy_global(id.proxy_x, ts);
      const auto gy = eval.event(hy).proxy_global(id.proxy_y, ts);
      QueryCost cost;
      const std::optional<bool> got =
          eval.holds_global_proxies(id, hx, hy, &cost);
      if (!gx || !gy) {
        EXPECT_FALSE(got.has_value()) << to_string(id);
        EXPECT_EQ(cost, QueryCost{});
        if (!gx) ++x_missing;
        if (gx && !gy) ++y_missing;
        continue;
      }
      QueryCost want;
      const bool expected = evaluate_fast(id.relation, EventCuts(ts, *gx),
                                          EventCuts(ts, *gy), want);
      ASSERT_TRUE(got.has_value()) << to_string(id);
      EXPECT_EQ(*got, expected) << to_string(id);
      EXPECT_EQ(cost, want) << to_string(id);
      ++present;
    }
  }
  EXPECT_GT(present, 0u);
  EXPECT_GT(x_missing, 0u);
  EXPECT_GT(y_missing, 0u);
}

TEST(RelationEvaluatorTest, InvalidHandleRejected) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  EXPECT_THROW(eval.handle_at(0), ContractViolation);
  // A default-constructed handle was minted by no evaluator.
  EXPECT_THROW(eval.event(EventHandle{}), ContractViolation);
}

TEST(RelationEvaluatorTest, HandlesFromAnotherEvaluatorRejected) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval_a(ts);
  RelationEvaluator eval_b(ts);
  const auto ha = eval_a.add_event(NonatomicEvent(exec, {EventId{0, 1}}, "A"));
  const auto hb = eval_b.add_event(NonatomicEvent(exec, {EventId{1, 1}}, "B"));
  EXPECT_NE(ha, hb);  // same index, different evaluator id
  EXPECT_EQ(ha.index(), hb.index());
  EXPECT_THROW(eval_a.event(hb), ContractViolation);
  EXPECT_THROW(
      eval_a.holds({Relation::R1, ProxyKind::End, ProxyKind::Begin}, ha, hb),
      ContractViolation);
  // handle_at re-mints the same strong handle.
  EXPECT_EQ(eval_a.handle_at(0), ha);
  EXPECT_EQ(eval_a.handles(), std::vector<EventHandle>{ha});
}

TEST(RelationEvaluatorTest, HoldsEvaluatesProxyPair) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  // X = all of p0's events, Y = all of p1's events: a2 ≺ b2 via the message.
  const auto hx = eval.add_event(NonatomicEvent(
      exec, {EventId{0, 1}, EventId{0, 2}, EventId{0, 3}}, "X"));
  const auto hy = eval.add_event(NonatomicEvent(
      exec, {EventId{1, 1}, EventId{1, 2}, EventId{1, 3}}, "Y"));
  // End-of-X (a3) does not precede begin-of-Y (b1): R1(U,L) fails...
  EXPECT_FALSE(
      eval.holds({Relation::R1, ProxyKind::End, ProxyKind::Begin}, hx, hy));
  // ...but begin-of-X (a1) precedes end-of-Y (b3): R1(L,U) holds.
  EXPECT_TRUE(
      eval.holds({Relation::R1, ProxyKind::Begin, ProxyKind::End}, hx, hy));
  // R4(U,U): a3 precedes nothing in Y; U(X)={a3} so R4 fails.
  EXPECT_FALSE(
      eval.holds({Relation::R4, ProxyKind::End, ProxyKind::End}, hx, hy));
  // R4(L,U): a1 ≺ b3.
  EXPECT_TRUE(
      eval.holds({Relation::R4, ProxyKind::Begin, ProxyKind::End}, hx, hy));
}

TEST(RelationEvaluatorTest, ExplicitCostSinkReceivesPerCallCost) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  const auto hx = eval.add_event(NonatomicEvent(exec, {EventId{0, 1}}, "X"));
  const auto hy = eval.add_event(NonatomicEvent(exec, {EventId{1, 2}}, "Y"));
  QueryCost cost;
  (void)eval.holds({Relation::R4, ProxyKind::Begin, ProxyKind::Begin}, hx, hy,
                   &cost);
  EXPECT_EQ(cost.integer_comparisons, 1u);
  (void)eval.holds_naive({Relation::R4, ProxyKind::Begin, ProxyKind::Begin},
                         hx, hy, Semantics::Weak, &cost);
  EXPECT_EQ(cost.causality_checks, 1u);
  // Sink-routed calls bypass the shared tally entirely.
  EXPECT_EQ(eval.accumulated_cost(), QueryCost{});
  // all_holding reports its own exact cost on the result.
  const auto all = eval.all_holding(hx, hy, &cost);
  EXPECT_GT(all.cost.integer_comparisons, 0u);
  EXPECT_EQ(cost.integer_comparisons, 1u + all.cost.integer_comparisons);
}

TEST(RelationEvaluatorTest, SharedTallyAccumulatesAndResets) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  const auto hx = eval.add_event(NonatomicEvent(exec, {EventId{0, 1}}, "X"));
  const auto hy = eval.add_event(NonatomicEvent(exec, {EventId{1, 2}}, "Y"));
  EXPECT_EQ(eval.accumulated_cost().integer_comparisons, 0u);
  (void)eval.holds({Relation::R4, ProxyKind::Begin, ProxyKind::Begin}, hx, hy);
  EXPECT_EQ(eval.accumulated_cost().integer_comparisons, 1u);
  (void)eval.holds_naive({Relation::R4, ProxyKind::Begin, ProxyKind::Begin},
                         hx, hy);
  EXPECT_EQ(eval.accumulated_cost().causality_checks, 1u);
  eval.charge(QueryCost{10, 20});
  EXPECT_EQ(eval.accumulated_cost().integer_comparisons, 11u);
  EXPECT_EQ(eval.accumulated_cost().causality_checks, 21u);
  eval.reset_accumulated_cost();
  EXPECT_EQ(eval.accumulated_cost(), QueryCost{});
}

TEST(RelationEvaluatorTest, RejectsForeignEvents) {
  const Execution exec_a = two_process_message();
  const Execution exec_b = two_process_message();
  const Timestamps ts(exec_a);
  RelationEvaluator eval(ts);
  EXPECT_THROW(eval.add_event(NonatomicEvent(exec_b, {EventId{0, 1}})),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Stampless evaluators: the blocks the first read seals equal the blocks an
// evaluator over Timestamps folds at registration.
// ---------------------------------------------------------------------------

// Every proxy view of every interval of `got` equals `want`'s, registration
// order for registration order.
void expect_same_views(const RelationEvaluator& got,
                       const RelationEvaluator& want) {
  ASSERT_EQ(got.event_count(), want.event_count());
  for (std::size_t i = 0; i < got.event_count(); ++i) {
    for (const ProxyKind kind : {ProxyKind::Begin, ProxyKind::End}) {
      const CutsView a = got.proxy_cuts(got.handle_at(i), kind);
      const CutsView b = want.proxy_cuts(want.handle_at(i), kind);
      SCOPED_TRACE(::testing::Message()
                   << "interval " << i << ", " << to_string(kind));
      EXPECT_TRUE(std::ranges::equal(a.intersect_past, b.intersect_past));
      EXPECT_TRUE(std::ranges::equal(a.union_past, b.union_past));
      EXPECT_TRUE(std::ranges::equal(a.intersect_future, b.intersect_future));
      EXPECT_TRUE(std::ranges::equal(a.union_future, b.union_future));
      EXPECT_EQ(a.spans.data(), got.event(got.handle_at(i)).spans().data());
      EXPECT_EQ(a.least, b.least);
      EXPECT_EQ(a.greatest, b.greatest);
    }
  }
}

// Registers `intervals` with a stampless evaluator and with one over
// Timestamps, then compares every view.
void expect_seal_matches_fold(const Execution& exec,
                              const std::vector<NonatomicEvent>& intervals) {
  const Timestamps ts(exec);
  RelationEvaluator folded(ts);
  RelationEvaluator sealed(exec);
  for (const NonatomicEvent& x : intervals) {
    folded.add_event(x);
    sealed.add_event(x);
  }
  expect_same_views(sealed, folded);
}

// Every interval the test batteries register on `exec`: each real event
// alone (least == greatest on its one node), each process's whole history,
// every event at once, and seeded subsets of 2–6 events, which share events
// with each other and with the rest.
std::vector<NonatomicEvent> interval_battery(const Execution& exec,
                                             std::uint64_t seed) {
  const std::vector<EventId>& all = exec.topological_order();
  std::vector<NonatomicEvent> out;
  for (const EventId& e : all) out.emplace_back(exec, std::vector{e});
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    std::vector<EventId> history;
    for (EventIndex k = 1; k <= exec.real_count(p); ++k) {
      history.push_back(EventId{p, k});
    }
    if (!history.empty()) out.emplace_back(exec, std::move(history));
  }
  out.emplace_back(exec, all);
  Xoshiro256StarStar rng(seed);
  for (int k = 0; k < 24; ++k) {
    std::vector<EventId> members;
    const std::size_t size = 2 + rng.below(5);
    for (std::size_t m = 0; m < size; ++m) {
      members.push_back(all[rng.below(all.size())]);
    }
    out.emplace_back(exec, std::move(members));
  }
  return out;
}

// One execution with every shape a sweep meets: p0 only sends (a
// broadcast, one message per receiver, and one multicast token), p1 only
// receives, p2 gathers with receive_all, p3's first receive is itself the
// source of two later receive_from events (receive-and-send), p4 mixes
// locals, sends and receives, and p5 has no real event.
Execution shape_zoo() {
  ExecutionBuilder b(6);
  const MessageToken to1 = b.send(0);
  const MessageToken to2 = b.send(0);
  const MessageToken to3 = b.send(0);
  const MessageToken multi = b.send(0);
  b.local(4);
  const MessageToken from4 = b.send(4);
  b.receive(1, to1);
  const EventId relay = b.receive(3, to3);
  const MessageToken gather[] = {to2, from4};
  b.receive_all(2, gather);
  b.receive(1, multi);
  b.receive(4, multi);
  const EventId relays[] = {relay};
  const EventId hop = b.receive_from(4, relays);
  const EventId hops[] = {hop, relay};
  b.receive_from(2, hops);
  b.local(3);
  const MessageToken back = b.send(3);
  b.receive(1, back);
  b.receive(2, multi);
  b.local(4);
  return b.build();
}

TEST(SealedBlocksTest, EveryShapeMatchesTheFold) {
  const Execution zoo = shape_zoo();
  ASSERT_EQ(zoo.real_count(5), 0u);
  expect_seal_matches_fold(zoo, interval_battery(zoo, 1));

  ExecutionBuilder one(1);  // |P| = 1: no messages at all
  for (int k = 0; k < 5; ++k) one.local(0);
  const Execution single = one.build();
  expect_seal_matches_fold(single, interval_battery(single, 2));
}

TEST(SealedBlocksTest, RandomExecutionsMatchTheFold) {
  for (const WorkloadConfig& cfg : property_sweep()) {
    SYNCON_SEED_TRACE(cfg.seed);
    const Execution exec = generate_execution(cfg);
    expect_seal_matches_fold(exec, interval_battery(exec, cfg.seed));
  }
}

// The stampless evaluator answers all 32 relations as the naive proxy
// quantification does, in both argument orders.
TEST(SealedBlocksTest, All32VerdictsAgreeWithNaive) {
  const Execution zoo = shape_zoo();
  RelationEvaluator eval(zoo);
  for (const NonatomicEvent& x : interval_battery(zoo, 3)) eval.add_event(x);
  for (std::size_t i = 0; i + 1 < eval.event_count(); i += 3) {
    const EventHandle x = eval.handle_at(i);
    const EventHandle y = eval.handle_at(eval.event_count() - 1 - i);
    for (const RelationId& id : all_relation_ids()) {
      ASSERT_EQ(eval.holds(id, x, y), eval.holds_naive(id, x, y))
          << to_string(id) << " on " << i;
      ASSERT_EQ(eval.holds(id, y, x), eval.holds_naive(id, y, x))
          << to_string(id) << " on " << i;
    }
  }
}

// An interval registered after the seal folds from the stamps the
// evaluator builds for it, and joins the sealed ones in every query.
TEST(SealedBlocksTest, RegistrationAfterASealFolds) {
  WorkloadConfig cfg;
  cfg.process_count = 6;
  cfg.events_per_process = 25;
  cfg.seed = 17;
  const Execution exec = generate_execution(cfg);
  const Timestamps ts(exec);
  RelationEvaluator folded(ts);
  RelationEvaluator eval(exec);
  Xoshiro256StarStar rng(171);
  IntervalSpec spec;
  spec.node_count = 3;
  spec.max_events_per_node = 3;
  for (int k = 0; k < 3; ++k) {
    const NonatomicEvent x = random_interval(exec, rng, spec);
    folded.add_event(x);
    eval.add_event(x);
  }
  (void)eval.all_holding(eval.handle_at(0), eval.handle_at(1));  // seals
  const NonatomicEvent late = random_interval(exec, rng, spec);
  folded.add_event(late);
  const EventHandle z = eval.add_event(late);
  expect_same_views(eval, folded);
  for (const RelationId& id : all_relation_ids()) {
    ASSERT_EQ(eval.holds(id, z, eval.handle_at(0)),
              eval.holds_naive(id, z, eval.handle_at(0)))
        << to_string(id);
  }
}

// A reference query before any block read builds the stamps and leaves
// the blocks to the seal; the first fast query then seals them.
TEST(SealedBlocksTest, ReferenceQueryBeforeTheFirstFastQuery) {
  const Execution exec = shape_zoo();
  RelationEvaluator eval(exec);
  const auto battery = interval_battery(exec, 4);
  for (const NonatomicEvent& x : battery) eval.add_event(x);
  const EventHandle x = eval.handle_at(1);
  const EventHandle y = eval.handle_at(battery.size() - 1);
  const RelationId id{Relation::R4, ProxyKind::Begin, ProxyKind::End};
  const bool naive = eval.holds_naive(id, x, y);
  EXPECT_EQ(eval.holds(id, x, y), naive);
  EXPECT_EQ(eval.holds_strict(id, x, y),
            eval.holds_naive(id, x, y, Semantics::Strict));
  const Timestamps ts(exec);
  RelationEvaluator folded(ts);
  for (const NonatomicEvent& e : battery) folded.add_event(e);
  expect_same_views(eval, folded);
}

// A seal allocates a fixed handful of buffers, none per event and none per
// interval: the count is the same at two execution sizes (655 and 5,129
// events) and two interval counts. The message-clock pool starts with room
// for |P| clocks and doubles only past that; these executions hold at most
// 22 and 28 of 32 in flight, so the count here is the pool's first size.
TEST(SealedBlocksTest, SealAllocatesTheSameAtEverySize) {
  std::set<std::uint64_t> counts;
  for (const std::size_t events : {20u, 160u}) {
    WorkloadConfig cfg;
    cfg.process_count = 32;
    cfg.events_per_process = events;
    cfg.seed = 23;
    const Execution exec = generate_execution(cfg);
    for (const std::size_t intervals : {4u, 64u}) {
      RelationEvaluator eval(exec);
      Xoshiro256StarStar rng(events * 1000 + intervals);
      IntervalSpec spec;
      spec.node_count = 6;
      spec.max_events_per_node = 3;
      for (std::size_t k = 0; k < intervals; ++k) {
        eval.add_event(random_interval(exec, rng, spec));
      }
      const std::uint64_t before =
          g_allocations.load(std::memory_order_relaxed);
      eval.seal();
      counts.insert(g_allocations.load(std::memory_order_relaxed) - before);
    }
  }
  EXPECT_EQ(counts.size(), 1u) << "allocations per seal differ with size";
  EXPECT_LE(*counts.begin(), 12u);
}

// ---------------------------------------------------------------------------
// Property sweep: the evaluator's 32-relation answers match the definitional
// evaluation of R(X̂, Ŷ) on the proxies, for every member of R.
// ---------------------------------------------------------------------------

class EvaluatorPropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(EvaluatorPropertyTest, FastMatchesNaiveOnAll32Relations) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xcccc);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2 + 1);
  spec.max_events_per_node = 3;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));
  for (const RelationId& id : all_relation_ids()) {
    ASSERT_EQ(eval.holds(id, hx, hy),
              eval.holds_naive(id, hx, hy, Semantics::Weak))
        << to_string(id);
  }
}

TEST_P(EvaluatorPropertyTest, AllHoldingListsExactlyTheHolders) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xdddd);
  IntervalSpec spec;
  spec.node_count = 2;
  spec.max_events_per_node = 2;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));
  const auto result = eval.all_holding(hx, hy);
  std::size_t expected = 0;
  for (const RelationId& id : all_relation_ids()) {
    if (eval.holds(id, hx, hy)) ++expected;
  }
  EXPECT_EQ(result.holding.size(), expected);
}

TEST_P(EvaluatorPropertyTest, StrictMatchesNaiveStrictEvenWithOverlap) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xeeee);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2 + 1);
  spec.max_events_per_node = 3;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));
  // Also a deliberately self-overlapping pair.
  const auto hz = eval.add_event(
      NonatomicEvent(exec, eval.event(hx).events(), "Z"));
  for (const RelationId& id : all_relation_ids()) {
    ASSERT_EQ(eval.holds_strict(id, hx, hy),
              eval.holds_naive(id, hx, hy, Semantics::Strict))
        << to_string(id);
    ASSERT_EQ(eval.holds_strict(id, hx, hz),
              eval.holds_naive(id, hx, hz, Semantics::Strict))
        << to_string(id) << " (overlapping pair)";
  }
}

TEST_P(EvaluatorPropertyTest, GlobalProxiesMatchNaiveWhenTheyExist) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xffff);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 2;
  const auto hx = eval.add_event(random_interval(exec, rng, spec, "X"));
  const auto hy = eval.add_event(random_interval(exec, rng, spec, "Y"));
  const auto gx_begin =
      eval.event(hx).proxy_global(ProxyKind::Begin, ts);
  const auto gy_begin =
      eval.event(hy).proxy_global(ProxyKind::Begin, ts);
  const RelationId id{Relation::R2, ProxyKind::Begin, ProxyKind::Begin};
  const auto result = eval.holds_global_proxies(id, hx, hy);
  if (!gx_begin || !gy_begin) {
    EXPECT_FALSE(result.has_value());
  } else {
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*result, evaluate_naive(Relation::R2, *gx_begin, *gy_begin, ts,
                                      Semantics::Weak));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EvaluatorPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
