// Explorer internals (DESIGN.md §3.14): binding-enumeration counts on
// hand-counted universes, reduced-vs-naive equivalence set for set, the
// schedule budget, the SYNCON_TEST_ITERS dial, the parallel frontier, the
// full invariant battery and a failing monitor oracle, the stability leg's
// second linearization, the planted-bug loop, and the batch-order
// canonicalization regression the explorer depends on.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "check/driver.hpp"
#include "explore/explorer.hpp"
#include "explore/invariants.hpp"
#include "helpers.hpp"
#include "online/online_monitor.hpp"
#include "online/online_system.hpp"
#include "relations/fast.hpp"

namespace syncon::explore {
namespace {

using check::CheckCase;
using check::DriverOptions;
using check::DriverReport;
using check::GenLimits;

// p0 runs three sends, p1 three arity-1 receives. Messages are
// interchangeable in *slots* but not in *sources*, so the inequivalent
// schedules are exactly the 3! = 6 bindings of messages to receives.
Universe pipeline_universe() {
  ExecutionBuilder b(2);
  const MessageToken m1 = b.send(0);
  const MessageToken m2 = b.send(0);
  const MessageToken m3 = b.send(0);
  b.receive(1, m1);
  b.receive(1, m2);
  b.receive(1, m3);
  return universe_from_execution(b.build());
}

// p0's first op sends three identical messages A to p1 and its second op
// one message to p2; p2's receive of it sources B to p1, and p2's send
// sources C. p1 runs a gather of arity 2, then three single receives.
// Placing {A, A, A, B, C} into (2, 1, 1, 1) slots gives 6 + 3 + 3 + 1 = 13
// distinct multiset bindings: the gather holds AA, AB, AC or BC.
Universe identical_messages_universe() {
  Universe u;
  u.ops.resize(3);
  u.ops[0] = {{0, {0, 1, 2}}, {0, {3}}};
  u.ops[1] = {{2, {}}, {1, {}}, {1, {}}, {1, {}}};
  u.ops[2] = {{1, {4}}, {0, {5}}};
  u.messages = {{0, 0, 1}, {0, 0, 1}, {0, 0, 1},
                {0, 1, 2}, {2, 0, 1}, {2, 1, 1}};
  return u;
}

// p1's first receive reaches p0's send through p1's send to p0; its last
// receive does not. m0 (p0's send) can only bind to the last receive, so
// exactly one class exists: the cyclic choice is rejected, the later op is
// not.
Universe one_cyclic_choice_universe() {
  Universe u;
  u.ops.resize(3);
  u.ops[0] = {{1, {}}, {0, {0}}};
  u.ops[1] = {{1, {}}, {0, {1}}, {1, {}}};
  u.ops[2] = {{0, {2}}};
  u.messages = {{0, 1, 1}, {1, 1, 0}, {2, 0, 1}};
  return u;
}

bool has_gather(const Universe& u) {
  for (const auto& script : u.ops) {
    for (const UniverseOp& op : script) {
      if (op.recv_arity > 1) return true;
    }
  }
  return false;
}

/// True when the word replays through ScheduleState to exactly the binding
/// the schedule carries.
bool replays_to_binding(const Universe& u, const Schedule& s) {
  ScheduleState st(u);
  for (const Step step : s.word) {
    if (!st.enabled(u, step)) return false;
    st.apply(u, step);
  }
  return st.complete(u) && st.binding == s.binding;
}

/// Every trace key the callback receives, with multiplicity. Fails the
/// test when a word does not replay to its binding.
std::multiset<TraceKey> trace_keys(const Universe& u,
                                   const ExploreOptions& options,
                                   ExploreStats* stats_out = nullptr) {
  std::multiset<TraceKey> keys;
  std::size_t bad_words = 0;
  std::mutex mu;
  const ExploreStats stats = explore(u, options, [&](const Schedule& s) {
    const bool replays = replays_to_binding(u, s);
    TraceKey key = trace_key(u, s);
    const std::lock_guard<std::mutex> lock(mu);
    if (!replays) ++bad_words;
    keys.insert(std::move(key));
    return true;
  });
  EXPECT_EQ(bad_words, 0u) << "words that do not replay to their binding";
  if (stats_out) *stats_out = stats;
  return keys;
}

/// True when no key occurs twice.
bool each_once(const std::multiset<TraceKey>& keys) {
  return std::set<TraceKey>(keys.begin(), keys.end()).size() == keys.size();
}

/// Sorted multiset of 64-bit verdict strings across all explored traces —
/// the payload reduced and naive enumeration must agree on.
std::multiset<std::string> verdict_set(const Universe& u,
                                       const ExploreOptions& options,
                                       const std::vector<EventId>& x,
                                       const std::vector<EventId>& y,
                                       ExploreStats* stats_out = nullptr) {
  std::multiset<std::string> verdicts;
  std::mutex mu;
  InvariantOptions inv;
  inv.mask = 0;  // verdict payload only
  const ExploreStats stats =
      explore(u, options, [&](const Schedule& s) {
        const ScheduleCheckResult r = check_schedule(u, s, x, y, inv);
        std::string bits;
        bits.reserve(r.verdicts.size());
        for (const bool v : r.verdicts) bits.push_back(v ? '1' : '0');
        const std::lock_guard<std::mutex> lock(mu);
        verdicts.insert(std::move(bits));
        return true;
      });
  if (stats_out) *stats_out = stats;
  return verdicts;
}

TEST(ExploreUniverseTest, HandCountedPipelineHasExactlySixClasses) {
  const Universe u = pipeline_universe();
  EXPECT_EQ(u.total_ops(), 6u);
  EXPECT_EQ(u.total_steps(), 6u);  // 3 exec (sends) + 3 deliveries

  std::size_t callbacks = 0;
  const ExploreStats stats =
      explore(u, {}, [&](const Schedule& s) {
        ++callbacks;
        // Every binding is a permutation: all three receives bound.
        EXPECT_EQ(s.binding.size(), 3u);
        return true;
      });
  EXPECT_EQ(stats.traces_visited, 6u);
  EXPECT_EQ(callbacks, 6u);
  EXPECT_EQ(stats.schedules_executed, 6u);
  EXPECT_EQ(stats.duplicate_traces, 0u);
  EXPECT_EQ(stats.prefixes_pruned, 0u);  // no message can close a cycle
  EXPECT_EQ(stats.dead_ends, 0u);
  EXPECT_FALSE(stats.budget_exhausted);
}

TEST(ExploreUniverseTest, IdenticalMessagesBindOncePerMultiset) {
  const Universe u = identical_messages_universe();
  ExploreStats reduced_stats, naive_stats;
  const std::multiset<TraceKey> reduced = trace_keys(u, {}, &reduced_stats);
  ExploreOptions naive;
  naive.dpor = false;
  const std::multiset<TraceKey> naive_keys = trace_keys(u, naive, &naive_stats);

  EXPECT_EQ(reduced.size(), 13u);
  EXPECT_TRUE(each_once(reduced));
  EXPECT_TRUE(each_once(naive_keys));
  EXPECT_EQ(reduced, naive_keys);
  EXPECT_EQ(reduced_stats.schedules_executed, 13u);
  EXPECT_EQ(reduced_stats.duplicate_traces, 0u);
  EXPECT_GT(naive_stats.duplicate_traces, 0u);
}

TEST(ExploreUniverseTest, OnlyTheReceivesThatReachTheSourceAreRejected) {
  const Universe u = one_cyclic_choice_universe();
  ExploreStats reduced_stats;
  const std::multiset<TraceKey> reduced = trace_keys(u, {}, &reduced_stats);
  ExploreOptions naive;
  naive.dpor = false;
  EXPECT_EQ(reduced, trace_keys(u, naive));
  ASSERT_EQ(reduced.size(), 1u);
  EXPECT_EQ(reduced_stats.prefixes_pruned, 1u);
  EXPECT_EQ(reduced_stats.dead_ends, 0u);
}

TEST(ExploreUniverseTest, BudgetStopsAfterExactlyThatManyCallbacks) {
  const Universe u = pipeline_universe();
  for (const bool parallel : {false, true}) {
    for (std::uint64_t k = 1; k <= 6; ++k) {
      ExploreOptions opt;
      opt.max_schedules = k;
      opt.parallel = parallel;
      std::atomic<std::uint64_t> callbacks{0};
      const ExploreStats stats = explore(u, opt, [&](const Schedule&) {
        callbacks.fetch_add(1);
        return true;
      });
      EXPECT_EQ(callbacks.load(), k) << "parallel " << parallel;
      EXPECT_EQ(stats.schedules_executed, k);
      EXPECT_EQ(stats.traces_visited, k);
      EXPECT_TRUE(stats.budget_exhausted);
    }
  }
}

TEST(ExploreUniverseTest, ReducedVisitsStrictlyFewerSchedulesThanNaive) {
  const Universe u = pipeline_universe();
  const std::vector<EventId> x{{0, 1}, {0, 2}, {0, 3}};
  const std::vector<EventId> y{{1, 1}, {1, 2}, {1, 3}};

  ExploreStats reduced_stats, naive_stats;
  const std::multiset<std::string> reduced_verdicts =
      verdict_set(u, {}, x, y, &reduced_stats);
  ExploreOptions naive;
  naive.dpor = false;
  const std::multiset<std::string> naive_verdicts =
      verdict_set(u, naive, x, y, &naive_stats);

  EXPECT_LT(reduced_stats.schedules_executed, naive_stats.schedules_executed);
  EXPECT_EQ(reduced_stats.traces_visited, naive_stats.traces_visited);
  EXPECT_EQ(reduced_verdicts, naive_verdicts);
  EXPECT_EQ(naive_stats.prefixes_pruned, 0u);
}

TEST(ExploreUniverseTest, GeneratedUniversesAgreeAcrossModes) {
  GenLimits limits;
  limits.workload.min_processes = 2;
  limits.workload.max_processes = 3;
  limits.workload.min_events_per_process = 2;
  limits.workload.max_events_per_process = 3;
  // The SYNCON_TEST_ITERS dial scales how many universes the sweep covers;
  // it runs on until it has met a gather and a rejected cyclic choice.
  const int iters = testing::test_iters(6);
  int compared = 0;
  bool gather_seen = false;
  bool cycle_seen = false;
  for (int i = 0;
       (compared < iters || !gather_seen || !cycle_seen) && i < 4000; ++i) {
    const std::uint64_t seed =
        check::case_seed_for(20260808, static_cast<std::size_t>(i));
    SYNCON_SEED_TRACE(seed);
    const CheckCase c = check::generate_case(seed, limits);
    if (c.messages.size() > 6) continue;  // keep naive enumeration bounded
    const auto m = check::materialize(c);
    if (!m) continue;
    const Universe u = universe_from_execution(*m->exec);

    ExploreStats reduced_stats, naive_stats;
    ExploreOptions naive;
    naive.dpor = false;
    const std::multiset<TraceKey> reduced_keys =
        trace_keys(u, {}, &reduced_stats);
    const std::multiset<TraceKey> naive_keys =
        trace_keys(u, naive, &naive_stats);
    ASSERT_TRUE(each_once(reduced_keys));
    ASSERT_EQ(reduced_keys, naive_keys);
    ASSERT_EQ(reduced_stats.schedules_executed, reduced_stats.traces_visited);
    ASSERT_EQ(reduced_stats.duplicate_traces, 0u);
    ASSERT_EQ(naive_stats.prefixes_pruned, 0u);
    ASSERT_LE(reduced_stats.schedules_executed,
              naive_stats.schedules_executed);
    if (compared < iters) {
      ASSERT_EQ(verdict_set(u, {}, c.x_members, c.y_members),
                verdict_set(u, naive, c.x_members, c.y_members));
    }
    gather_seen = gather_seen || has_gather(u);
    cycle_seen = cycle_seen || reduced_stats.prefixes_pruned > 0;
    ++compared;
  }
  EXPECT_GE(compared, iters);
  EXPECT_TRUE(gather_seen) << "the sweep met no universe with a gather";
  EXPECT_TRUE(cycle_seen) << "the sweep met no rejected cyclic choice";
}

TEST(ExploreUniverseTest, ParallelFrontierMatchesSerial) {
  const Universe u = pipeline_universe();
  const std::vector<EventId> x{{0, 1}, {0, 2}, {0, 3}};
  const std::vector<EventId> y{{1, 1}, {1, 2}, {1, 3}};

  ExploreStats serial_stats, parallel_stats;
  const std::multiset<std::string> serial_verdicts =
      verdict_set(u, {}, x, y, &serial_stats);
  ExploreOptions par;
  par.parallel = true;
  const std::multiset<std::string> parallel_verdicts =
      verdict_set(u, par, x, y, &parallel_stats);

  EXPECT_EQ(parallel_stats.traces_visited, serial_stats.traces_visited);
  EXPECT_EQ(parallel_stats.schedules_executed, serial_stats.schedules_executed);
  EXPECT_EQ(parallel_verdicts, serial_verdicts);

  // Larger generated universes split the binding tree deeper: the visited
  // set and every counter are the serial walk's.
  GenLimits limits;
  limits.workload.min_processes = 3;
  limits.workload.max_processes = 4;
  limits.workload.min_events_per_process = 2;
  limits.workload.max_events_per_process = 5;
  int compared = 0;
  for (int i = 0; compared < testing::test_iters(4) && i < 200; ++i) {
    const std::uint64_t seed =
        check::case_seed_for(4242, static_cast<std::size_t>(i));
    SYNCON_SEED_TRACE(seed);
    const CheckCase c = check::generate_case(seed, limits);
    if (c.messages.size() < 6 || c.messages.size() > 10) continue;
    const auto m = check::materialize(c);
    if (!m) continue;
    const Universe g = universe_from_execution(*m->exec);
    ExploreStats serial, parallel;
    const std::multiset<TraceKey> serial_keys = trace_keys(g, {}, &serial);
    const std::multiset<TraceKey> parallel_keys = trace_keys(g, par, &parallel);
    ASSERT_EQ(parallel_keys, serial_keys);
    ASSERT_EQ(parallel.schedules_executed, serial.schedules_executed);
    ASSERT_EQ(parallel.prefixes_pruned, serial.prefixes_pruned);
    ASSERT_EQ(parallel.dead_ends, serial.dead_ends);
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(ExploreInvariantTest, CoreBatteryHoldsOnSmallGeneratedUniverses) {
  GenLimits limits;
  limits.workload.min_processes = 2;
  limits.workload.max_processes = 4;
  limits.workload.min_events_per_process = 2;
  limits.workload.max_events_per_process = 4;
  const check::ScheduleInvarianceConfig gate =
      check::schedule_invariance_config();
  const int iters = testing::test_iters(8);
  int explored = 0;
  for (int i = 0; explored < iters && i < 30 * iters; ++i) {
    const std::uint64_t seed =
        check::case_seed_for(77, static_cast<std::size_t>(i));
    SYNCON_SEED_TRACE(seed);
    const CheckCase c = check::generate_case(seed, limits);
    if (c.process_count() > gate.max_processes ||
        c.messages.size() > gate.max_messages ||
        c.total_events() > gate.max_events) {
      continue;
    }
    const check::PropertyResult result = check::run_property_on_case(
        *check::find_property("schedule_invariance"), c);
    ASSERT_TRUE(result.passed) << result.message;
    ++explored;
  }
  EXPECT_GT(explored, 0);
}

// The recovery and compaction legs — the compaction leg with its late
// joiner — on every schedule of a few small generated universes.
TEST(ExploreInvariantTest, FullBatteryHoldsOnSmallGeneratedUniverses) {
  GenLimits limits;
  limits.workload.min_processes = 2;
  limits.workload.max_processes = 4;
  limits.workload.min_events_per_process = 2;
  limits.workload.max_events_per_process = 4;
  const check::ScheduleInvarianceConfig gate =
      check::schedule_invariance_config();
  const int iters = testing::test_iters(8);
  int explored = 0;
  int monitored = 0;  // universes whose monitor legs are not vacuous
  for (int i = 0; explored < iters && i < 30 * iters; ++i) {
    const std::uint64_t seed =
        check::case_seed_for(77, static_cast<std::size_t>(i));
    SYNCON_SEED_TRACE(seed);
    const CheckCase c = check::generate_case(seed, limits);
    if (c.process_count() > gate.max_processes ||
        c.messages.size() > gate.max_messages ||
        c.total_events() > gate.max_events) {
      continue;
    }
    const auto m = check::materialize(c);
    ASSERT_TRUE(m.has_value());
    const Universe u = universe_from_execution(*m->exec);
    InvariantOptions inv;
    inv.mask = kInvAll;
    inv.fault_seed = check::fingerprint(c);
    ExploreOptions opt;
    opt.max_schedules = gate.max_schedules;
    std::string violation;
    const ExploreStats stats = explore(u, opt, [&](const Schedule& s) {
      const ScheduleCheckResult r =
          check_schedule(u, s, c.x_members, c.y_members, inv);
      if (!r.passed) violation = r.message;
      return r.passed;
    });
    ASSERT_TRUE(violation.empty())
        << "schedule " << stats.traces_visited << ": " << violation;
    if (!split_actions(m->x, m->y).y.empty()) ++monitored;
    ++explored;
  }
  EXPECT_GT(explored, 0);
  EXPECT_GT(monitored, 0);
}

// The lossy leg can fail: against a server that cannot answer (a fresh
// system of the same size), a gap the channel tore open never closes.
TEST(ExploreInvariantTest, LossyLegFailsAgainstAServerThatCannotAnswer) {
  ExecutionBuilder b(2);
  std::vector<MessageToken> sent;
  for (int i = 0; i < 6; ++i) sent.push_back(b.send(0));
  for (const MessageToken& m : sent) b.receive(1, m);
  const Execution exec = b.build();
  const NonatomicEvent x(exec, {{0, 1}, {0, 2}, {0, 3}}, "X");
  const NonatomicEvent y(exec, {{1, 4}, {1, 5}, {1, 6}}, "Y");
  const MonitorActions actions = split_actions(x, y);
  OnlineSystem server = replay(exec);
  const std::vector<WireMessage> reports =
      reports_of(server, exec.topological_order());
  MonitorPlan plan;
  plan.lossy = seeded_feed(3, 3);

  // Precondition: the channel drops a report that a later delivered report
  // vouches for, so the gap is open before any checkpoint.
  OnlineMonitor probe(exec.process_count());
  actions.open(probe);
  for (const Arrival& a : ship(*plan.lossy, reports).drain()) {
    probe.observe(a.message);
  }
  ASSERT_GT(probe.missing_report_count(), 0u);

  OnlineSystem mute(exec.process_count());
  EXPECT_EQ(monitor_differential(mute, reports, actions, plan),
            "recovery: resync failed to converge");
  EXPECT_EQ(monitor_differential(server, reports, actions, plan), "");
}

// The planted-bug loop: with the wrong_r2 hook armed, exhaustive
// schedule_invariance must catch the fast-path divergence — through full
// enumeration of every explored universe, not through sampling luck.
struct PlantedBug {
  PlantedBug() { fast_debug_hooks().wrong_r2 = true; }
  ~PlantedBug() { fast_debug_hooks().wrong_r2 = false; }
};

TEST(ExploreInvariantTest, PlantedWrongR2IsCaughtExhaustively) {
  const PlantedBug plant;
  DriverOptions options;
  options.seed = 424242;
  options.max_cases = 60;
  options.properties = {"schedule_invariance"};
  options.exhaustive = true;
  options.stop_after_failures = 1;
  options.limits.workload.min_processes = 2;
  options.limits.workload.max_processes = 4;
  options.limits.workload.min_events_per_process = 2;
  options.limits.workload.max_events_per_process = 4;
  const DriverReport report = check::run_conformance(options);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].property, "schedule_invariance");
  EXPECT_NE(report.failures[0].detail.find("relations"), std::string::npos)
      << report.failures[0].detail;
  // The minimized repro still fails, and the fixed library passes it.
  EXPECT_FALSE(check::run_property_on_case(
                   *check::find_property("schedule_invariance"),
                   report.failures[0].minimized)
                   .passed);
  fast_debug_hooks().wrong_r2 = false;
  EXPECT_TRUE(check::run_property_on_case(
                  *check::find_property("schedule_invariance"),
                  report.failures[0].minimized)
                  .passed);
  fast_debug_hooks().wrong_r2 = true;  // PlantedBug dtor restores false
}

// The stability leg drives its second OnlineSystem by the same binding
// walked highest-numbered process first: on a universe with concurrency the
// two event orders differ for some schedule, and the clocks agree.
TEST(ExploreOnlineTest, StabilityLegDrivesASecondLinearization) {
  const Universe u = pipeline_universe();
  const std::vector<EventId> x{{0, 1}, {0, 2}, {0, 3}};
  const std::vector<EventId> y{{1, 1}, {1, 2}, {1, 3}};
  InvariantOptions inv;
  inv.mask = kInvOnline | kInvStability;
  std::size_t differing = 0;
  std::size_t clock_mismatches = 0;
  std::size_t failed = 0;
  explore(u, {}, [&](const Schedule& s) {
    OnlineSystem low(u.process_count());
    OnlineSystem high(u.process_count());
    const std::vector<EventId> low_order = drive_system(u, s, low);
    const std::vector<EventId> high_order = drive_system(
        u, {linearize(u, s.binding, Priority::kHighestFirst), s.binding},
        high);
    if (low_order != high_order) ++differing;
    for (const EventId& e : low_order) {
      if (low.clock_of(e) != high.clock_of(e)) ++clock_mismatches;
    }
    if (!check_schedule(u, s, x, y, inv).passed) ++failed;
    return true;
  });
  EXPECT_GT(differing, 0u);
  EXPECT_EQ(clock_mismatches, 0u);
  EXPECT_EQ(failed, 0u);
}

// Satellite regression: delivery within a gather batch must be set-like.
// Permuting the batch order may not leak into the receive's source list,
// the clocks, or the reconstructed execution (the explorer relies on this —
// schedules of one trace must replay to bit-identical online state).
TEST(ExploreOnlineTest, BatchOrderPermutationIsCanonicalized) {
  struct Run {
    Execution exec;
    EventId recv;
    std::vector<EventId> sources;
    VectorClock clock;
  };
  const auto run = [](const std::vector<std::size_t>& order) {
    OnlineSystem sys(4);
    std::vector<WireMessage> wires;
    for (ProcessId p = 1; p <= 3; ++p) wires.push_back(sys.send(p));
    std::vector<WireMessage> batch;
    for (const std::size_t i : order) batch.push_back(wires[i]);
    const EventId recv = sys.deliver_all(0, batch);
    const auto span = sys.sources_of(recv);
    return Run{sys.to_execution(), recv,
               std::vector<EventId>(span.begin(), span.end()),
               sys.clock_of(recv).dense()};
  };

  const Run a = run({0, 1, 2});
  const Run b = run({2, 0, 1});
  const Run c = run({1, 2, 0});
  EXPECT_EQ(a.recv, b.recv);
  EXPECT_EQ(a.recv, c.recv);
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.sources, c.sources);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.clock, c.clock);

  const auto incoming = [](const Execution& e, EventId recv) {
    const auto span = e.incoming(recv);
    return std::vector<EventId>(span.begin(), span.end());
  };
  EXPECT_EQ(incoming(a.exec, a.recv), incoming(b.exec, b.recv));
  EXPECT_EQ(incoming(a.exec, a.recv), incoming(c.exec, c.recv));
  EXPECT_EQ(a.exec.messages(), b.exec.messages());
  EXPECT_EQ(a.exec.messages(), c.exec.messages());

  const Timestamps ts_a(a.exec), ts_b(b.exec);
  EXPECT_EQ(ts_a.forward(a.recv), ts_b.forward(b.recv));
}

}  // namespace
}  // namespace syncon::explore
