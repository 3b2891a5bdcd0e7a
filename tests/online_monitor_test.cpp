#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "explore/invariants.hpp"
#include "helpers.hpp"
#include "online/online_monitor.hpp"
#include "relations/naive.hpp"
#include "sim/interval_picker.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

using testing::property_sweep;

TEST(OnlineMonitorTest, LifecycleAndLookup) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  EXPECT_TRUE(monitor.is_open("a"));
  EXPECT_EQ(monitor.summary("a"), nullptr);
  monitor.record("a", sys.local(0));
  const IntervalSummary& s = monitor.complete("a");
  EXPECT_EQ(s.label, "a");
  EXPECT_FALSE(monitor.is_open("a"));
  EXPECT_NE(monitor.summary("a"), nullptr);
  EXPECT_EQ(monitor.summary("b"), nullptr);
}

TEST(OnlineMonitorTest, LifecycleContracts) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  EXPECT_THROW(monitor.begin("a"), ContractViolation);
  EXPECT_THROW(monitor.record("b", EventId{0, 1}), ContractViolation);
  EXPECT_THROW(monitor.complete("a"), ContractViolation);  // empty
  monitor.record("a", sys.local(0));
  monitor.complete("a");
  EXPECT_THROW(monitor.begin("a"), ContractViolation);  // label reuse
}

// Event (0, 2^32 - 1) would need own component 2^32, which no clock holds;
// a 32-bit check wraps that to 0 and accepts a report whose component is 0.
TEST(OnlineMonitorTest, FidgeCheckDoesNotWrapAtTheLargestIndex) {
  OnlineMonitor monitor(2);
  monitor.begin("a");
  const WireMessage wrapped{{0, std::numeric_limits<EventIndex>::max()},
                            VectorClock({0, 1})};
  EXPECT_FALSE(monitor.observe(wrapped));
  monitor.record("a", wrapped.source);  // a member's garbage is garbage too
  EXPECT_FALSE(monitor.observe(wrapped));
  EXPECT_EQ(monitor.quarantined(), 2u);
  EXPECT_EQ(monitor.recorded_events("a"), 0u);
  EXPECT_EQ(monitor.missing_report_count(), 0u);
}

// ---------------------------------------------------------------------------
// Membership: a feed-only monitor folds a report into the action that
// declared its event (record), and only observes every other report.
// ---------------------------------------------------------------------------

TEST(OnlineMonitorMembershipTest, DeclaredMembersFoldUndeclaredAreObserved) {
  OnlineSystem sys(2);
  const EventId a1 = sys.local(0);
  const EventId other = sys.local(1);
  OnlineMonitor monitor(2);
  monitor.begin("a");
  monitor.record("a", a1);
  EXPECT_TRUE(monitor.is_member(a1));
  EXPECT_FALSE(monitor.is_member(other));
  EXPECT_TRUE(monitor.observe(sys.wire_of(a1)));
  EXPECT_TRUE(monitor.observe(sys.wire_of(other)));
  EXPECT_EQ(monitor.recorded_events("a"), 1u);
  EXPECT_EQ(monitor.complete("a").event_count, 1u);
}

TEST(OnlineMonitorMembershipTest, ReportBeforeDeclarationIsOnlyObserved) {
  OnlineSystem sys(2);
  const EventId early = sys.local(0);
  const EventId late = sys.local(1);
  OnlineMonitor monitor(2);
  monitor.begin("a");
  EXPECT_TRUE(monitor.observe(sys.wire_of(early)));
  monitor.record("a", early);
  monitor.record("a", late);
  EXPECT_EQ(monitor.recorded_events("a"), 0u);
  // A copy of the early report is a duplicate: declaring it does not
  // re-fold what was already observed.
  EXPECT_FALSE(monitor.observe(sys.wire_of(early)));
  EXPECT_EQ(monitor.recorded_events("a"), 0u);
  EXPECT_TRUE(monitor.observe(sys.wire_of(late)));
  EXPECT_EQ(monitor.recorded_events("a"), 1u);
}

TEST(OnlineMonitorMembershipTest, LateMemberReportRepairsAndFiresAgain) {
  OnlineSystem sys(2);
  const EventId a1 = sys.local(0);
  const WireMessage m = sys.send(0);
  const EventId b1 = sys.deliver(1, m);
  OnlineMonitor monitor(2);
  std::vector<Confidence> fires;
  std::vector<bool> holds;
  monitor.watch({Relation::R1, ProxyKind::End, ProxyKind::Begin}, "a", "b",
                [&](const std::string&, const std::string&, bool h,
                    Confidence conf) {
                  holds.push_back(h);
                  fires.push_back(conf);
                });
  monitor.begin("a");
  monitor.begin("b");
  monitor.record("a", a1);
  monitor.record("a", m.source);
  monitor.record("b", b1);
  monitor.observe(sys.wire_of(a1));  // m's report is late
  monitor.observe(sys.wire_of(b1));
  monitor.complete("a");
  monitor.complete("b");
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], Confidence::PendingGap);
  EXPECT_EQ(monitor.summary("a")->event_count, 1u);
  EXPECT_TRUE(monitor.observe(m));
  EXPECT_EQ(monitor.summary("a")->event_count, 2u);
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[1], Confidence::Definite);
  EXPECT_TRUE(holds[1]);  // the repaired a ends with the send b receives
}

TEST(OnlineMonitorMembershipTest, ForgetDropsMembersAndFreesTheLabel) {
  OnlineSystem sys(2);
  const EventId e = sys.local(0);
  const EventId f = sys.local(1);
  OnlineMonitor monitor(2);
  monitor.begin("a");
  monitor.record("a", e);
  monitor.record("a", f);
  monitor.observe(sys.wire_of(e));
  monitor.complete("a");
  monitor.forget("a");
  EXPECT_FALSE(monitor.is_member(e));
  EXPECT_FALSE(monitor.is_member(f));
  // A former member's late report is only observed: nothing to repair.
  EXPECT_TRUE(monitor.observe(sys.wire_of(f)));
  EXPECT_EQ(monitor.retained(), 0u);
  // The label is free again, and so are its former members.
  monitor.begin("a");
  monitor.record("a", f);  // its report came first: never folded
  const EventId h = sys.local(1);
  monitor.record("a", h);
  EXPECT_TRUE(monitor.observe(sys.wire_of(h)));
  EXPECT_EQ(monitor.recorded_events("a"), 1u);
}

TEST(OnlineMonitorMembershipTest, DeclarationContracts) {
  OnlineSystem sys(2);
  const EventId e = sys.local(0);
  OnlineMonitor monitor(2);
  EXPECT_THROW(monitor.record("a", e), ContractViolation);  // never begun
  monitor.begin("a");
  monitor.begin("b");
  monitor.record("a", e);
  monitor.record("a", e);  // again to the same action: a no-op
  EXPECT_THROW(monitor.record("b", e), ContractViolation);
  EXPECT_TRUE(monitor.observe(sys.wire_of(e)));
  EXPECT_EQ(monitor.recorded_events("a"), 1u);
  monitor.complete("a");
  EXPECT_THROW(monitor.record("a", sys.local(1)), ContractViolation);
  // A completed action's members stay its own until forget.
  EXPECT_THROW(monitor.record("b", e), ContractViolation);
  EXPECT_TRUE(monitor.is_member(e));
}

TEST(OnlineMonitorTest, WatchFiresAtLaterCompletion) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  std::vector<std::pair<std::string, bool>> fired;
  monitor.begin("produce");
  monitor.begin("consume");
  monitor.watch({Relation::R1, ProxyKind::End, ProxyKind::Begin}, "produce",
                "consume",
                [&](const std::string& x, const std::string&, bool holds,
                    Confidence) { fired.emplace_back(x, holds); });

  monitor.record("produce", sys.local(0));
  const WireMessage m = sys.send(0);
  monitor.record("produce", m.source);
  monitor.complete("produce");
  EXPECT_TRUE(fired.empty());  // consumer still running

  monitor.record("consume", sys.deliver(1, m));
  monitor.record("consume", sys.local(1));
  monitor.complete("consume");
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, "produce");
  EXPECT_TRUE(fired[0].second);
}

TEST(OnlineMonitorTest, WatchRegisteredLateFiresImmediately) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));
  monitor.complete("a");
  monitor.begin("b");
  monitor.record("b", sys.local(1));
  monitor.complete("b");
  int calls = 0;
  bool value = true;
  monitor.watch({Relation::R4, ProxyKind::Begin, ProxyKind::End}, "a", "b",
                [&](const std::string&, const std::string&, bool holds,
                    Confidence conf) {
                  ++calls;
                  value = holds;
                  EXPECT_EQ(conf, Confidence::Definite);  // direct observer
                });
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(value);  // concurrent actions
}

TEST(OnlineMonitorTest, DeadlineWatchMeasuresGap) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("req");
  const WireMessage m = sys.send(0, 1000);
  monitor.record("req", m.source);
  monitor.complete("req");
  monitor.begin("rsp");
  monitor.record("rsp", sys.deliver(1, m, 4000));
  monitor.complete("rsp");

  Duration measured = -1;
  bool ok = false;
  monitor.watch_deadline(
      TimingConstraint{"rt", Anchor::End, Anchor::End, 0, 2500}, "req", "rsp",
      [&](const std::string&, const std::string&, Duration gap_us,
          bool satisfied, Confidence) {
        measured = gap_us;
        ok = satisfied;
      });
  EXPECT_EQ(measured, 3000);
  EXPECT_FALSE(ok);  // 3000 > 2500 budget
}

TEST(OnlineMonitorTest, DeadlineOnUntimedActionsReportsUnsatisfied) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));  // no physical time
  monitor.complete("a");
  monitor.begin("b");
  monitor.record("b", sys.local(1, 500));
  monitor.complete("b");
  bool ok = true;
  monitor.watch_deadline(TimingConstraint{"d", Anchor::End, Anchor::Start, 0,
                                          1000},
                         "a", "b",
                         [&](const std::string&, const std::string&, Duration,
                             bool satisfied, Confidence) { ok = satisfied; });
  EXPECT_FALSE(ok);
}

TEST(OnlineMonitorTest, ReentrantCallbacksAreSafe) {
  // A callback that registers a follow-up watch and completes another
  // action — both must be handled without invalidation or missed firings.
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("first");
  monitor.record("first", sys.local(0));
  monitor.begin("second");
  monitor.record("second", sys.local(1));
  int second_fired = 0;
  monitor.watch(
      {Relation::R4, ProxyKind::Begin, ProxyKind::End}, "first", "first",
      [&](const std::string&, const std::string&, bool, Confidence) {
        // Re-entrant: complete "second" and register a watch on it.
        monitor.complete("second");
        monitor.watch({Relation::R4, ProxyKind::Begin, ProxyKind::End},
                      "second", "second",
                      [&](const std::string&, const std::string&, bool,
                          Confidence) { ++second_fired; });
      });
  monitor.complete("first");  // fires the first watch, which cascades
  EXPECT_EQ(second_fired, 1);
}

TEST(OnlineMonitorTest, ForgetBoundsMemoryAndAllowsLabelReuse) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  for (int round = 0; round < 3; ++round) {
    monitor.begin("work");
    monitor.record("work", sys.local(0));
    monitor.complete("work");
    EXPECT_EQ(monitor.retained(), 1u);
    monitor.forget("work");
    EXPECT_EQ(monitor.retained(), 0u);
    EXPECT_EQ(monitor.summary("work"), nullptr);
  }
  EXPECT_THROW(monitor.forget("work"), ContractViolation);
}

TEST(OnlineMonitorTest, ForgetDropsDanglingWatches) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));
  monitor.complete("a");
  int calls = 0;
  monitor.watch({Relation::R4, ProxyKind::Begin, ProxyKind::End}, "a",
                "never",
                [&](const std::string&, const std::string&, bool, Confidence) {
                  ++calls;
                });
  monitor.forget("a");
  // The counterpart completing later cannot fire the dropped watch.
  monitor.begin("never");
  monitor.record("never", sys.local(1));
  monitor.complete("never");
  EXPECT_EQ(calls, 0);
}

TEST(OnlineMonitorTest, LatencyTrackingEmitsMonotoneWaterfalls) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  EXPECT_FALSE(monitor.latency_tracking());
  monitor.set_latency_tracking(true);
  ASSERT_TRUE(monitor.latency_tracking());

  monitor.begin("produce");
  monitor.begin("consume");
  monitor.watch({Relation::R1, ProxyKind::End, ProxyKind::Begin}, "produce",
                "consume",
                [](const std::string&, const std::string&, bool, Confidence) {
                });
  monitor.record("produce", sys.local(0));
  const WireMessage m = sys.send(0);
  monitor.record("produce", m.source);
  monitor.complete("produce");
  monitor.record("consume", sys.deliver(1, m));
  monitor.complete("consume");

  ASSERT_EQ(monitor.waterfalls().size(), 1u);
  const obs::Waterfall& fall = monitor.waterfalls().front();
  EXPECT_EQ(fall.x, "produce");
  EXPECT_EQ(fall.y, "consume");
  EXPECT_TRUE(fall.definite);  // direct observer
  EXPECT_EQ(fall.fire_index, 1);

  // The waterfall invariant: stages follow the pipeline taxonomy in order,
  // are contiguous clamped-monotone, and sum exactly to the end-to-end
  // detection latency.
  const auto taxonomy = obs::detect_stages();
  ASSERT_EQ(fall.stages.size(), taxonomy.size());
  for (std::size_t i = 0; i < taxonomy.size(); ++i) {
    EXPECT_EQ(fall.stages[i].stage, taxonomy[i]);
  }
  EXPECT_TRUE(fall.monotone());
  std::uint64_t sum = 0;
  for (const obs::StageSpan& s : fall.stages) sum += s.duration_us;
  EXPECT_EQ(sum, fall.total_us());
  EXPECT_EQ(fall.start_us + fall.total_us(), fall.end_us());
}

TEST(OnlineMonitorTest, DeadlineWatchesEmitWaterfallsToo) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.set_latency_tracking(true);
  monitor.begin("req");
  const WireMessage m = sys.send(0, 1000);
  monitor.record("req", m.source);
  monitor.complete("req");
  monitor.begin("rsp");
  monitor.record("rsp", sys.deliver(1, m, 4000));
  monitor.complete("rsp");
  monitor.watch_deadline(
      TimingConstraint{"rt", Anchor::End, Anchor::End, 0, 2500}, "req", "rsp",
      [](const std::string&, const std::string&, Duration, bool, Confidence) {
      });
  ASSERT_EQ(monitor.waterfalls().size(), 1u);
  EXPECT_TRUE(monitor.waterfalls().front().monotone());
}

TEST(OnlineMonitorTest, LatencyTrackingOffEmitsNothing) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));
  monitor.complete("a");
  monitor.watch({Relation::R4, ProxyKind::Begin, ProxyKind::End}, "a", "a",
                [](const std::string&, const std::string&, bool, Confidence) {
                });
  EXPECT_TRUE(monitor.waterfalls().empty());
}

// ---------------------------------------------------------------------------
// Set watches: one RelationSet watch is the same oracle as one watch per
// member, firing once per pair instead of once per relation.
// ---------------------------------------------------------------------------

// X = {a, send} on p0; Y = {receive, send, receive} across p1 and p2; one
// untracked event on p2. Reports in execution order.
struct PairFeed {
  OnlineSystem sys{3};
  explore::MonitorActions actions;
  std::vector<WireMessage> reports;

  PairFeed() {
    const EventId a = sys.local(0);
    const WireMessage m1 = sys.send(0);
    const EventId r1 = sys.deliver(1, m1);
    const EventId noise = sys.local(2);
    const WireMessage m2 = sys.send(1);
    const EventId r2 = sys.deliver(2, m2);
    actions = {{a, m1.source}, {r1, m2.source, r2}};
    for (const EventId& e : {a, m1.source, r1, noise, m2.source, r2}) {
      reports.push_back(sys.wire_of(e));
    }
  }
};

struct SetFiring {
  std::uint32_t holding = 0;
  Confidence conf = Confidence::Definite;

  friend bool operator==(const SetFiring&, const SetFiring&) = default;
};

// Runs the feed into a fresh feed-only monitor that watches all 32
// relations of (X, Y) — as one set watch, or as 32 single watches whose
// firings are folded back into masks — dropping the reports at positions
// in `lost`, then resyncs every gap from the system's log.
std::pair<std::vector<SetFiring>, ComparisonCounter> run_all_32(
    const PairFeed& f, const std::set<std::size_t>& lost, bool as_set) {
  OnlineMonitor mon(3);
  std::vector<SetFiring> firings;
  std::vector<std::pair<std::size_t, SetFiring>> singles;
  if (as_set) {
    mon.watch(RelationSet::all(), "X", "Y",
              [&](RelationSet holding, Confidence conf) {
                firings.push_back({holding.mask(), conf});
              });
  } else {
    for (std::size_t k = 0; k < 32; ++k) {
      mon.watch(relation_at(k), "X", "Y",
                [&singles, k](const std::string& x, const std::string& y,
                              bool holds, Confidence conf) {
                  EXPECT_EQ(x, "X");
                  EXPECT_EQ(y, "Y");
                  singles.push_back(
                      {k, {holds ? std::uint32_t{1} << k : 0u, conf}});
                });
    }
  }
  f.actions.open(mon);
  for (std::size_t i = 0; i < f.reports.size(); ++i) {
    if (!lost.count(i)) mon.observe(f.reports[i]);
  }
  mon.complete("X");
  mon.complete("Y");
  mon.checkpoint(f.sys.snapshot());
  for (const WireMessage& w : f.sys.serve(mon.resync_request())) {
    mon.observe(w);
  }
  EXPECT_EQ(mon.missing_report_count(), 0u);
  // The singles fire in registration order, 32 to a pass.
  EXPECT_EQ(singles.size() % 32, 0u);
  for (std::size_t i = 0; i < singles.size(); ++i) {
    EXPECT_EQ(singles[i].first, i % 32);
    if (i % 32 == 0) {
      firings.push_back({0, singles[i].second.conf});
    }
    EXPECT_EQ(singles[i].second.conf, firings.back().conf);
    firings.back().holding |= singles[i].second.holding;
  }
  return {firings, mon.counter()};
}

TEST(OnlineMonitorSetWatchTest, MatchesSingleWatchesOnCleanAndLossyFeeds) {
  const PairFeed f;
  // Clean; X's first report lost (the PendingGap firing, then the Definite
  // re-fire once the late report repairs X); the untracked report lost
  // (a PendingGap firing, upgraded without repair).
  for (const std::set<std::size_t>& lost :
       {std::set<std::size_t>{}, std::set<std::size_t>{0},
        std::set<std::size_t>{3}}) {
    const auto [set_firings, set_counter] = run_all_32(f, lost, true);
    const auto [single_firings, single_counter] = run_all_32(f, lost, false);
    EXPECT_EQ(set_firings, single_firings);
    EXPECT_EQ(set_counter.integer_comparisons,
              single_counter.integer_comparisons);
    ASSERT_FALSE(set_firings.empty());
    EXPECT_EQ(set_firings.back().conf, Confidence::Definite);
    if (lost.empty()) {
      EXPECT_EQ(set_firings.size(), 1u);
    } else {
      ASSERT_EQ(set_firings.size(), 2u);
      EXPECT_EQ(set_firings.front().conf, Confidence::PendingGap);
    }
  }
}

TEST(OnlineMonitorSetWatchTest, RegisteredAfterCompletionFiresAtOnce) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.set_latency_tracking(true);
  monitor.begin("a");
  monitor.record("a", sys.local(0));
  const WireMessage m = sys.send(0);
  monitor.record("a", m.source);
  const IntervalSummary& sa = monitor.complete("a");
  monitor.begin("b");
  monitor.record("b", sys.local(1));  // concurrent with all of a
  monitor.record("b", sys.deliver(1, m));
  const IntervalSummary& sb = monitor.complete("b");
  std::vector<SetFiring> fired;
  const RelationSet watched = RelationSet::all();
  monitor.watch(watched, "a", "b", [&](RelationSet holding, Confidence conf) {
    fired.push_back({holding.mask(), conf});
  });
  ComparisonCounter counter;
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].holding,
            evaluate_online(watched, sa, sb, counter).mask());
  EXPECT_NE(fired[0].holding, 0u);  // all of a precedes b's receive
  EXPECT_NE(fired[0].holding, watched.mask());  // but not b's first event
  EXPECT_EQ(fired[0].conf, Confidence::Definite);
  EXPECT_EQ(monitor.definite_fires(), 1u);  // one firing for the set
  EXPECT_EQ(monitor.counter().integer_comparisons,
            counter.integer_comparisons);
  // One waterfall for the firing; it holds only if every member does.
  ASSERT_EQ(monitor.waterfalls().size(), 1u);
  EXPECT_EQ(monitor.waterfalls().front().x, "a");
  EXPECT_FALSE(monitor.waterfalls().front().holds);
}

TEST(OnlineMonitorSetWatchTest, ForgetDropsSetWatch) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));
  monitor.complete("a");
  int calls = 0;
  monitor.watch(RelationSet::all(), "a", "later",
                [&](RelationSet, Confidence) { ++calls; });
  monitor.forget("a");
  monitor.begin("later");
  monitor.record("later", sys.local(1));
  monitor.complete("later");
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(monitor.retained(), 1u);
}

TEST(OnlineMonitorSetWatchTest, CallbackMayRegisterWatches) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));
  monitor.begin("b");
  monitor.record("b", sys.local(1));
  std::vector<std::string> order;
  monitor.watch(RelationSet::all(), "a", "b", [&](RelationSet, Confidence) {
    order.push_back("set");
    // Registered mid-pass on a ready pair: fires in the same pass, after
    // every watch registered before it.
    monitor.watch(RelationSet::all(), "b", "a", [&](RelationSet, Confidence) {
      order.push_back("nested set");
    });
    monitor.watch({Relation::R4, ProxyKind::Begin, ProxyKind::End}, "a",
                  "b",
                  [&](const std::string&, const std::string&, bool,
                      Confidence) { order.push_back("nested single"); });
  });
  monitor.watch({Relation::R1, ProxyKind::End, ProxyKind::Begin}, "a", "b",
                [&](const std::string&, const std::string&, bool,
                    Confidence) { order.push_back("single"); });
  monitor.complete("a");
  EXPECT_TRUE(order.empty());
  monitor.complete("b");
  EXPECT_EQ(order, (std::vector<std::string>{"set", "single", "nested set",
                                             "nested single"}));
}

TEST(OnlineMonitorSetWatchTest, ForgetFromCallbackIsAContractViolation) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));
  monitor.complete("a");
  monitor.begin("b");
  monitor.record("b", sys.local(1));
  monitor.watch(RelationSet::all(), "a", "b",
                [&](RelationSet, Confidence) { monitor.forget("a"); });
  EXPECT_THROW(monitor.complete("b"), ContractViolation);
  // The violation left the monitor usable: later watches still fire.
  int calls = 0;
  monitor.watch(RelationSet::all(), "b", "a",
                [&](RelationSet, Confidence) { ++calls; });
  EXPECT_EQ(calls, 1);
  monitor.forget("a");
  EXPECT_EQ(monitor.summary("a"), nullptr);
}

// ---------------------------------------------------------------------------
// Proxy-summary property: the 32-relation online evaluation matches the
// offline naive evaluation of R(X̂, Ŷ) on the Defn-2 proxies.
// ---------------------------------------------------------------------------

class OnlineMonitorPropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(OnlineMonitorPropertyTest, ProxyRelationsMatchOffline) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  const OnlineSystem sys = replay(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x0711);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 15; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    IntervalTracker tx("X"), ty("Y");
    for (const EventId& e : x.events()) tx.add(sys, e);
    for (const EventId& e : y.events()) ty.add(sys, e);
    const IntervalSummary sx = tx.summary(), sy = ty.summary();
    // One pass over the whole set answers bit k as the k-th single call
    // does, for the same comparisons in total.
    ComparisonCounter set_counter;
    const RelationSet holding =
        evaluate_online(RelationSet::all(), sx, sy, set_counter);
    ComparisonCounter single_total;
    for (const RelationId& id : all_relation_ids()) {
      ComparisonCounter counter;
      const bool online = evaluate_online(id, sx, sy, counter);
      single_total.integer_comparisons += counter.integer_comparisons;
      const bool offline =
          evaluate_naive(id.relation, x.proxy_per_node(id.proxy_x),
                         y.proxy_per_node(id.proxy_y), ts, Semantics::Weak);
      ASSERT_EQ(online, offline) << to_string(id) << " trial " << trial;
      ASSERT_EQ(holding.contains(id), online)
          << to_string(id) << " trial " << trial;
    }
    ASSERT_EQ(set_counter.integer_comparisons,
              single_total.integer_comparisons)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OnlineMonitorPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
