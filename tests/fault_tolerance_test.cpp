// The robustness headline (DESIGN.md §3.7): a faulty run plus recovery is
// indistinguishable from the fault-free run — same events, same clocks,
// bit-identical relation verdicts — and the whole fault schedule is a pure
// function of the seed.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "cuts/watermark.hpp"
#include "helpers.hpp"
#include "monitor/report.hpp"
#include "monitor/trace_io.hpp"
#include "online/gap_tracker.hpp"
#include "online/online_monitor.hpp"
#include "sim/faulty_channel.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

// ---------------------------------------------------------------------------
// GapTracker unit behaviour.
// ---------------------------------------------------------------------------

TEST(GapTrackerTest, WitnessAndClaimTrackHoles) {
  GapTracker g(3);
  EXPECT_FALSE(g.has_gap());
  EXPECT_TRUE(g.witness(EventId{1, 1}));
  EXPECT_FALSE(g.witness(EventId{1, 1}));  // duplicate
  EXPECT_TRUE(g.witness(EventId{1, 3}));   // out of order: 2 not yet seen
  EXPECT_FALSE(g.has_gap());               // nothing claims 2 yet
  g.claim(1, 3);                           // someone vouches for 1..3
  EXPECT_TRUE(g.has_gap());
  EXPECT_TRUE(g.gap_on(1));
  EXPECT_FALSE(g.gap_on(2));
  EXPECT_EQ(g.missing(), (std::vector<EventId>{EventId{1, 2}}));
  EXPECT_EQ(g.resync_request().events, g.missing());
  EXPECT_TRUE(g.witness(EventId{1, 2}));  // hole closed, 3 absorbed
  EXPECT_FALSE(g.has_gap());
  EXPECT_TRUE(g.missing().empty());
}

TEST(GapTrackerTest, ClaimFromClockUsesDummyConvention) {
  // Clock component q counts the dummy, so clock[q] = k vouches for k-1
  // real events of q.
  GapTracker g(2);
  g.claim(VectorClock({3, 1}));  // 2 real events of p0, none of p1
  EXPECT_TRUE(g.gap_on(0));
  EXPECT_FALSE(g.gap_on(1));
  EXPECT_EQ(g.missing(),
            (std::vector<EventId>{EventId{0, 1}, EventId{0, 2}}));
}

// ---------------------------------------------------------------------------
// Application-level resync: lost message detected from a later clock,
// recovered from the sender's log, clocks converge.
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, GapDetectedAndResyncConverges) {
  // Reference: both messages delivered.
  OnlineSystem ref(2);
  const WireMessage r1 = ref.send(0);
  const WireMessage r2 = ref.send(0);
  ref.deliver(1, r1);
  ref.deliver(1, r2);

  // Faulty: m1 lost; delivering m2 exposes the hole via its clock.
  OnlineSystem sys(2);
  const WireMessage m1 = sys.send(0);
  const WireMessage m2 = sys.send(0);
  sys.deliver(1, m2);
  EXPECT_TRUE(sys.has_gap(1));
  EXPECT_EQ(sys.missing_at(1), (std::vector<EventId>{m1.source}));

  // Recovery: retransmit-request served from the sender's log.
  const RetransmitRequest req = sys.resync_request(1);
  const std::vector<WireMessage> replies = sys.serve(req);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].source, m1.source);
  EXPECT_EQ(replies[0].clock, m1.clock);
  sys.deliver(1, replies[0]);
  EXPECT_FALSE(sys.has_gap(1));

  // Converged: p1 merged both clocks, exactly like the reference (the
  // receive ORDER differs, which the final clock does not depend on).
  EXPECT_EQ(sys.current_clock(1), ref.current_clock(1));
}

TEST(FaultToleranceTest, ServeSkipsEventsNoLogCanAnswer) {
  OnlineSystem sys(2);
  sys.send(0);
  const std::vector<WireMessage> replies =
      sys.serve(RetransmitRequest{{EventId{0, 1}, EventId{0, 99}}});
  ASSERT_EQ(replies.size(), 1u);  // 0:99 never executed (crashed sender)
  EXPECT_EQ(replies[0].source, (EventId{0, 1}));
}

// ---------------------------------------------------------------------------
// Headline: a scripted workload executed over a channel with ≥10% drop,
// duplicate AND reorder rates, with duplicates pushed through deliver and
// losses recovered via wire_of, reproduces the fault-free run bit-for-bit.
// ---------------------------------------------------------------------------

struct ConvergenceOutcome {
  std::string trace;
  std::vector<VectorClock> clocks;
  ChannelStats stats;
  std::uint64_t duplicates_suppressed = 0;
};

ConvergenceOutcome run_scripted(bool faulty, std::uint64_t seed) {
  constexpr std::size_t kProcs = 3;
  constexpr std::size_t kRounds = 25;
  LinkFaultConfig link;
  if (faulty) {
    link.drop_probability = 0.15;
    link.duplicate_probability = 0.15;
    link.reorder_probability = 0.20;
    link.min_delay = 1;
    link.max_delay = 40;
  }
  FaultPlan plan;
  plan.link = link;
  plan.seed = seed;
  FaultyNetwork net(kProcs, plan);

  OnlineSystem sys(kProcs);
  TimePoint t = 0;
  // Arrived-but-not-yet-consumed wires, per receiver.
  std::vector<std::map<EventId, WireMessage>> inbox(kProcs);

  // Drain arrivals: fresh wires wait in the inbox for the scripted
  // consume; copies of already-consumed wires go straight through
  // deliver, which must absorb them (idempotence under live traffic).
  const auto pump = [&](ProcessId q) {
    for (const Arrival& a : net.pop_ready(q, t)) {
      if (sys.already_delivered(q, a.message.source)) {
        const EventId again = sys.deliver(q, a.message);
        EXPECT_EQ(again, sys.deliver(q, a.message));
      } else {
        inbox[q].emplace(a.message.source, a.message);
      }
    }
  };

  for (std::size_t r = 0; r < kRounds; ++r) {
    // Each process: one local event, then two sends to its successor —
    // two wires in flight per link per round gives reordering a target.
    std::vector<std::array<WireMessage, 2>> wires(kProcs);
    for (ProcessId p = 0; p < kProcs; ++p) {
      sys.local(p);
      const auto to = static_cast<ProcessId>((p + 1) % kProcs);
      for (std::size_t k = 0; k < 2; ++k) {
        wires[p][k] = sys.send(p);
        net.push(p, to, wires[p][k], ++t);
      }
    }
    // The scripted consume: q takes its predecessor's wires in SEND
    // order regardless of arrival order, each as soon as it has landed.
    // Pumping in small time steps lets duplicate copies trail the
    // consume and hit the deliver-side suppression.
    std::vector<std::size_t> taken(kProcs, 0);
    for (int step = 0; step < 12; ++step) {
      t += 5;
      for (ProcessId q = 0; q < kProcs; ++q) {
        pump(q);
        const auto& exp = wires[(q + kProcs - 1) % kProcs];
        while (taken[q] < 2) {
          const auto it = inbox[q].find(exp[taken[q]].source);
          if (it == inbox[q].end()) break;
          sys.deliver(q, it->second);
          inbox[q].erase(it);
          ++taken[q];
        }
      }
    }
    // Whatever never arrived was dropped: the timeout path retransmits
    // it from the sender's authoritative log.
    for (ProcessId q = 0; q < kProcs; ++q) {
      const auto& exp = wires[(q + kProcs - 1) % kProcs];
      for (; taken[q] < 2; ++taken[q]) {
        const EventId want = exp[taken[q]].source;
        const auto it = inbox[q].find(want);
        if (it != inbox[q].end()) {
          sys.deliver(q, it->second);
          inbox[q].erase(it);
        } else {
          sys.deliver(q, sys.wire_of(want));
        }
      }
    }
  }
  // Drain the tail so late duplicates also pass through deliver.
  t += 100000;
  for (ProcessId q = 0; q < kProcs; ++q) pump(q);

  ConvergenceOutcome out;
  out.trace = trace_to_string(sys.to_execution());
  for (ProcessId p = 0; p < kProcs; ++p) {
    out.clocks.push_back(sys.current_clock(p));
  }
  out.stats = net.stats();
  out.duplicates_suppressed = sys.duplicates_suppressed();
  return out;
}

TEST(FaultToleranceTest, FaultyRunPlusRecoveryEqualsFaultFreeRun) {
  const ConvergenceOutcome clean = run_scripted(false, 11);
  const ConvergenceOutcome faulty = run_scripted(true, 11);
  // The faults really happened…
  EXPECT_GT(faulty.stats.dropped, 0u);
  EXPECT_GT(faulty.stats.duplicated, 0u);
  EXPECT_GT(faulty.stats.reordered, 0u);
  EXPECT_GT(faulty.duplicates_suppressed, 0u);
  // …and recovery erased them: bit-identical causal structure and clocks.
  EXPECT_EQ(clean.trace, faulty.trace);
  EXPECT_EQ(clean.clocks, faulty.clocks);
}

TEST(FaultToleranceTest, SameSeedSameFaultSchedule) {
  const ConvergenceOutcome a = run_scripted(true, 77);
  const ConvergenceOutcome b = run_scripted(true, 77);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  EXPECT_EQ(a.trace, b.trace);
  const ConvergenceOutcome c = run_scripted(true, 78);
  EXPECT_NE(a.stats, c.stats);  // a different schedule entirely
}

// ---------------------------------------------------------------------------
// Monitor-level convergence: the remote monitor ingests reports over a
// faulty channel, fires with PendingGap while reports are known-missing,
// then resyncs and converges to the fault-free verdicts, all Definite.
// ---------------------------------------------------------------------------

struct Fire {
  bool holds = false;
  Confidence conf = Confidence::Definite;
};

TEST(FaultToleranceTest, DegradedMonitorConvergesToFaultFreeVerdicts) {
  const auto max_seed =
      static_cast<std::uint64_t>(syncon::testing::test_iters(8));
  for (std::uint64_t seed = 1; seed <= max_seed; ++seed) {
    SYNCON_SEED_TRACE(seed);
    // The application, fault-free: A spans p0/p1, B spans p2.
    OnlineSystem sys(3);
    std::vector<EventId> a_events, b_events;
    a_events.push_back(sys.local(0, 100));
    const WireMessage m01 = sys.send(0, 200);
    a_events.push_back(m01.source);
    a_events.push_back(sys.deliver(1, m01, 300));
    const WireMessage m12 = sys.send(1, 400);
    a_events.push_back(m12.source);
    b_events.push_back(sys.deliver(2, m12, 500));
    b_events.push_back(sys.local(2, 600));
    const EventId unlabeled = sys.local(0, 700);

    // Reference verdict from a direct observer.
    OnlineMonitor direct(sys);
    Fire ref;
    direct.begin("A");
    direct.begin("B");
    direct.watch({Relation::R3, ProxyKind::Begin, ProxyKind::End}, "A", "B",
                 [&](const std::string&, const std::string&, bool holds,
                     Confidence conf) { ref = Fire{holds, conf}; });
    for (const EventId& e : a_events) direct.record("A", e);
    for (const EventId& e : b_events) direct.record("B", e);
    direct.complete("A");
    direct.complete("B");
    EXPECT_EQ(ref.conf, Confidence::Definite);

    // The remote monitor, fed through a very lossy report channel.
    LinkFaultConfig link;
    link.drop_probability = 0.35;
    link.duplicate_probability = 0.25;
    link.reorder_probability = 0.30;
    link.min_delay = 1;
    link.max_delay = 100;
    FaultyChannel channel(link, seed);
    TimePoint t = 0;
    for (const EventId& e : a_events) channel.push(sys.wire_of(e), t += 5);
    for (const EventId& e : b_events) channel.push(sys.wire_of(e), t += 5);
    channel.push(sys.wire_of(unlabeled), t += 5);

    OnlineMonitor remote(3);
    std::vector<Fire> fires;
    remote.begin("A");
    remote.begin("B");
    remote.watch({Relation::R3, ProxyKind::Begin, ProxyKind::End}, "A", "B",
                 [&](const std::string&, const std::string&, bool holds,
                     Confidence conf) { fires.push_back({holds, conf}); });
    for (const EventId& e : a_events) remote.record("A", e);
    for (const EventId& e : b_events) remote.record("B", e);
    const auto feed = [&](const WireMessage& m) {
      remote.observe(m, sys.time_of(m.source));
    };
    for (const Arrival& a : channel.drain()) feed(a.message);
    // Clock-snapshot recovery exposes tail losses, then resync closes
    // every gap (each iteration witnesses everything it requested).
    const auto recover = [&] {
      remote.checkpoint(sys.snapshot());
      for (int rounds = 0; !remote.missing_reports().empty(); ++rounds) {
        ASSERT_LT(rounds, 10) << "resync failed to converge";
        for (const WireMessage& m : sys.serve(remote.resync_request())) {
          feed(m);
        }
      }
    };
    // An action whose every report was lost cannot be summarized yet:
    // recover first, as examples/lossy_monitoring.cpp does.
    if (remote.recorded_events("A") == 0 || remote.recorded_events("B") == 0) {
      recover();
    }
    remote.complete("A");
    remote.complete("B");
    EXPECT_TRUE(remote.degraded());
    recover();

    // Converged: the last firing matches the fault-free verdict and is
    // Definite (every clock seen is now fully explained).
    ASSERT_FALSE(fires.empty()) << "seed " << seed;
    EXPECT_EQ(fires.back().holds, ref.holds) << "seed " << seed;
    EXPECT_EQ(fires.back().conf, Confidence::Definite) << "seed " << seed;
    EXPECT_TRUE(remote.missing_reports().empty());
    // Repaired summaries equal the direct observer's, field for field.
    EXPECT_EQ(remote.summary("A")->intersect_past,
              direct.summary("A")->intersect_past);
    EXPECT_EQ(remote.summary("A")->union_past,
              direct.summary("A")->union_past);
    EXPECT_EQ(remote.summary("B")->least_index,
              direct.summary("B")->least_index);
    EXPECT_EQ(remote.summary("B")->greatest_index,
              direct.summary("B")->greatest_index);
  }
}

TEST(FaultToleranceTest, CompactionPreservesConvergedVerdicts) {
  // Pair 1 (A/B), fed cleanly and retired; the log is then compacted at the
  // monitor's pin. Pair 2 (C/D) runs after the compaction with a lost
  // report, and recovery still converges to the direct observer's verdict —
  // compaction is invisible to the monitoring contract.
  OnlineSystem sys(3);
  std::vector<EventId> a_events, b_events;
  a_events.push_back(sys.local(0, 100));
  const WireMessage m01 = sys.send(0, 200);
  a_events.push_back(m01.source);
  a_events.push_back(sys.deliver(1, m01, 300));
  const WireMessage m12 = sys.send(1, 400);
  a_events.push_back(m12.source);
  b_events.push_back(sys.deliver(2, m12, 500));
  b_events.push_back(sys.local(2, 600));

  OnlineMonitor direct(sys);
  std::vector<Fire> ref;
  const auto watch_pair = [](OnlineMonitor& mon, const std::string& x,
                             const std::string& y, std::vector<Fire>& out) {
    mon.watch({Relation::R3, ProxyKind::Begin, ProxyKind::End}, x, y,
              [&out](const std::string&, const std::string&, bool holds,
                     Confidence conf) { out.push_back({holds, conf}); });
  };
  direct.begin("A");
  direct.begin("B");
  watch_pair(direct, "A", "B", ref);
  for (const EventId& e : a_events) direct.record("A", e);
  for (const EventId& e : b_events) direct.record("B", e);
  direct.complete("A");
  direct.complete("B");
  ASSERT_EQ(ref.size(), 1u);

  OnlineMonitor remote(3);
  std::vector<Fire> fires;
  remote.begin("A");
  remote.begin("B");
  watch_pair(remote, "A", "B", fires);
  for (const EventId& e : a_events) remote.record("A", e);
  for (const EventId& e : b_events) remote.record("B", e);
  for (const EventId& e : a_events) {
    remote.observe(sys.wire_of(e), sys.time_of(e));
  }
  for (const EventId& e : b_events) {
    remote.observe(sys.wire_of(e), sys.time_of(e));
  }
  remote.complete("A");
  remote.complete("B");
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].holds, ref[0].holds);
  EXPECT_EQ(fires[0].conf, Confidence::Definite);

  // Retire the pair and compact everything below the monitor's pin.
  remote.forget("A");
  remote.forget("B");
  const VectorClock pins[] = {remote.watermark_pin()};
  const std::size_t reclaimed = sys.compact(low_watermark(pins));
  EXPECT_EQ(reclaimed, 6u);
  EXPECT_EQ(sys.live_log_events(), 0u);

  // Pair 2 lives entirely above the watermark.
  std::vector<EventId> c_events, d_events;
  c_events.push_back(sys.local(0, 700));
  const WireMessage m02 = sys.send(0, 800);
  c_events.push_back(m02.source);
  d_events.push_back(sys.deliver(2, m02, 900));
  d_events.push_back(sys.local(2, 1000));

  std::vector<Fire> ref2;
  direct.begin("C");
  direct.begin("D");
  watch_pair(direct, "C", "D", ref2);
  for (const EventId& e : c_events) direct.record("C", e);
  for (const EventId& e : d_events) direct.record("D", e);
  direct.complete("C");
  direct.complete("D");
  ASSERT_EQ(ref2.size(), 1u);

  // The remote monitor loses C's first report; completing under the gap
  // fires PendingGap, and resync (served from the live suffix of the
  // compacted log) upgrades it to the reference verdict.
  std::vector<Fire> fires2;
  remote.begin("C");
  remote.begin("D");
  watch_pair(remote, "C", "D", fires2);
  for (const EventId& e : c_events) remote.record("C", e);
  for (const EventId& e : d_events) remote.record("D", e);
  for (const EventId& e : c_events) {
    if (e == c_events.front()) continue;  // dropped
    remote.observe(sys.wire_of(e), sys.time_of(e));
  }
  for (const EventId& e : d_events) {
    remote.observe(sys.wire_of(e), sys.time_of(e));
  }
  remote.complete("C");
  remote.complete("D");
  ASSERT_FALSE(fires2.empty());
  EXPECT_EQ(fires2.back().conf, Confidence::PendingGap);

  remote.checkpoint(sys.snapshot());
  int rounds = 0;
  while (remote.missing_report_count() > 0) {
    ASSERT_LT(rounds++, 10) << "resync failed to converge";
    for (const WireMessage& m : sys.serve(remote.resync_request())) {
      remote.observe(m, sys.time_of(m.source));
    }
  }
  EXPECT_EQ(fires2.back().conf, Confidence::Definite);
  EXPECT_EQ(fires2.back().holds, ref2.back().holds);
  EXPECT_EQ(remote.summary("C")->intersect_past,
            direct.summary("C")->intersect_past);
  EXPECT_EQ(remote.summary("D")->union_past,
            direct.summary("D")->union_past);
}

TEST(FaultToleranceTest, DuplicateReportsAreCountedNotRefolded) {
  OnlineSystem sys(2);
  const EventId e = sys.local(0, 10);
  OnlineMonitor remote(2);
  remote.begin("X");
  remote.record("X", e);
  const WireMessage report = sys.wire_of(e);
  remote.observe(report, 10);
  remote.observe(report, 10);
  remote.observe(report, 10);
  EXPECT_EQ(remote.duplicate_reports(), 2u);
  EXPECT_EQ(remote.recorded_events("X"), 1u);
  remote.complete("X");
  EXPECT_EQ(remote.summary("X")->event_count, 1u);
}

TEST(FaultToleranceTest, CompletingAFullyLostActionFailsLoudly) {
  // Every report of "Y" was dropped: the monitor cannot summarize it from
  // nothing and says so (the caller resyncs first — recorded_events is the
  // guard the lossy_monitoring example uses).
  OnlineMonitor remote(2);
  remote.begin("Y");
  EXPECT_EQ(remote.recorded_events("Y"), 0u);
  EXPECT_THROW(remote.complete("Y"), ContractViolation);
}

// ---------------------------------------------------------------------------
// Crash watchdog: intervals that can never complete are surfaced, and
// their watches stay PendingGap forever.
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, WatchdogSurfacesDoomedActions) {
  OnlineSystem sys(3);
  const EventId a1 = sys.local(0);
  sys.local(2);                       // 2:1 — its report is lost forever
  const WireMessage m = sys.send(2);  // 2:2
  const EventId b1 = sys.deliver(1, m);

  OnlineMonitor remote(3);
  remote.begin("alive");
  remote.begin("doomed");
  std::vector<Fire> fires;
  remote.watch({Relation::R4, ProxyKind::Begin, ProxyKind::End}, "alive",
               "doomed",
               [&](const std::string&, const std::string&, bool holds,
                   Confidence conf) { fires.push_back({holds, conf}); });
  remote.record("alive", a1);
  remote.record("doomed", b1);
  remote.observe(sys.wire_of(a1));
  // b1's clock vouches for both p2 events; neither report has arrived.
  remote.observe(sys.wire_of(b1));
  EXPECT_EQ(remote.missing_reports(),
            (std::vector<EventId>{EventId{2, 1}, EventId{2, 2}}));
  // 2:2's report straggles in, onto an action living on p2 itself.
  remote.begin("on-p2");
  remote.record("on-p2", m.source);
  remote.observe(m);
  EXPECT_EQ(remote.missing_reports(), (std::vector<EventId>{EventId{2, 1}}));
  // p2 is now known crashed: 2:1 is gone for good.
  remote.mark_crashed(2);
  EXPECT_TRUE(remote.is_crashed(2));
  EXPECT_EQ(remote.crashed_processes(), (std::vector<ProcessId>{2}));
  EXPECT_EQ(remote.unrecoverable_reports(),
            (std::vector<EventId>{EventId{2, 1}}));
  // "doomed" lives on p1 (its component event merely descends from p2's
  // message), so it is not doomed — but the action open on p2 itself is.
  const auto doomed = remote.doomed_actions();
  ASSERT_EQ(doomed.size(), 1u);
  EXPECT_EQ(doomed[0], "on-p2");

  // Completing under a permanent gap fires PendingGap; nothing can ever
  // upgrade it.
  remote.complete("alive");
  remote.complete("doomed");
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].conf, Confidence::PendingGap);
  EXPECT_EQ(remote.pending_fires(), 1u);
  EXPECT_EQ(remote.definite_fires(), 0u);
}

TEST(FaultToleranceTest, OnlineReportNamesUnrecoverableLosses) {
  OnlineSystem sys(2);
  const WireMessage m = sys.send(0);
  const EventId b = sys.deliver(1, m);
  OnlineMonitor remote(2);
  remote.begin("X");
  remote.record("X", b);
  remote.observe(sys.wire_of(b));  // vouches for 0:1, never observed
  remote.mark_crashed(0);
  const std::string report = online_report_to_string(remote);
  EXPECT_NE(report.find("degraded"), std::string::npos);
  EXPECT_NE(report.find("p0:1"), std::string::npos);
  EXPECT_NE(report.find("NO (process crashed)"), std::string::npos);
  EXPECT_NE(report.find("crashed: p0"), std::string::npos);
}

}  // namespace
}  // namespace syncon
