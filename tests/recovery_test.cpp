// Crash/recovery end-to-end (DESIGN.md §3.12, §3.15): the headline
// differential kills a journaled monitor host at a seeded-random point
// while its feed suffers ≥15% drop/duplicate/reorder AND its storage
// suffers torn tails and bit flips, recovers it from its journal, and
// demands verdicts bit-identical to an uninterrupted fault-free run; the
// system-side differential does the same for a DurableSystem's clocks and
// traces. Plus the ingress-hardening (quarantine) tests and the resync
// loop's stop rule.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "check/properties.hpp"
#include "explore/invariants.hpp"
#include "helpers.hpp"
#include "online/online_monitor.hpp"
#include "online/online_system.hpp"
#include "online/wire_codec.hpp"
#include "relations/relation.hpp"
#include "sim/faulty_channel.hpp"
#include "sim/workload.hpp"
#include "store/durable.hpp"
#include "store/storage.hpp"
#include "store/store.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "support/varint.hpp"

namespace syncon {
namespace {

Execution sample_execution(std::uint64_t seed) {
  WorkloadConfig config;
  config.process_count = 4;
  config.events_per_process = 20;
  config.seed = seed;
  return generate_execution(config);
}

// X/Y pick a prefix window on two processes — enough events on each that
// the intervals overlap the message traffic.
void pick_intervals(const Execution& exec, std::set<EventId>& x_set,
                    std::set<EventId>& y_set) {
  for (EventIndex i = 2; i <= exec.real_count(0) && i <= 9; ++i) {
    x_set.insert(EventId{0, i});
  }
  for (EventIndex i = 3; i <= exec.real_count(1) && i <= 11; ++i) {
    y_set.insert(EventId{1, i});
  }
  ASSERT_FALSE(x_set.empty());
  ASSERT_FALSE(y_set.empty());
}

DurabilityPolicy test_policy(Xoshiro256StarStar& rng) {
  DurabilityPolicy policy;
  policy.sync_every = 1 + static_cast<std::uint32_t>(rng.below(4));
  policy.segment_records = 4 + static_cast<std::uint32_t>(rng.below(12));
  policy.full_interval = 1 + static_cast<std::uint32_t>(rng.below(8));
  return policy;
}

// --- headline: crash under link + storage faults, recover, bit-identity ---

// The monitor crash leg of `recovery_identity` (check/properties.hpp): the
// case hosted as one journaled MonitorDaemon tenant, crashed at a seeded
// journal append or sync under ≥15% drop/duplicate/reorder on its report
// feed and torn, bit-flipped storage, recovered with the unacknowledged
// frames resubmitted, then restarted from the journal alone.
TEST(RecoveryTest, MonitorCrashUnderFaultsRecoversToFaultFreeVerdicts) {
  const int iters = testing::test_iters(20);
  std::size_t holds = 0, fails = 0, durable = 0;
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = 0x51CCA0 + static_cast<std::uint64_t>(iter);
    SYNCON_SEED_TRACE(seed);
    Xoshiro256StarStar rng(seed);
    const Execution exec = sample_execution(seed);
    explore::MonitorActions actions;
    pick_intervals(exec, actions.x, actions.y);
    const OnlineSystem sys = replay(exec);

    explore::LossyFeed feed;
    feed.link.drop_probability = 0.2;
    feed.link.duplicate_probability = 0.18;
    feed.link.reorder_probability = 0.25;
    feed.link.max_delay = 40;
    feed.channel_seed = seed ^ 0xFEED;
    SimFaultConfig faults;
    faults.torn_tail = 0.6;
    faults.bit_flip = 0.1;
    faults.seed = seed ^ 0xC0FFEE;
    const check::CrashLegResult leg = check::crash_hosted_monitor(
        sys, exec.topological_order(), actions, feed, faults, rng);
    EXPECT_EQ(leg.violation, "");
    EXPECT_TRUE(leg.crashed) << "seeded crash point was never reached";
    if (leg.recovery.recovered) ++durable;

    // The leg checked its verdicts against these; count both outcomes.
    for (const explore::Firing& f : explore::clean_firings(
             exec.process_count(),
             explore::reports_of(sys, exec.topological_order()), actions)) {
      ++(f.holds ? holds : fails);
    }
  }
  EXPECT_GT(durable, 0u) << "no crash left a journal to recover from";
  EXPECT_GT(holds, 0u);
  EXPECT_GT(fails, 0u);
}

// The system-side identity: a journaling DurableSystem crashed mid-drive
// (with compaction in the mix) recovers and finishes with clocks and traces
// bit-identical to a never-crashed replay.
TEST(RecoveryTest, SystemCrashRecoversToIdenticalClocksAndTraces) {
  const int iters = testing::test_iters(20);
  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = 0xD15C + static_cast<std::uint64_t>(iter);
    SYNCON_SEED_TRACE(seed);
    Xoshiro256StarStar rng(seed);
    const Execution exec = sample_execution(seed * 3 + 1);
    const OnlineSystem oracle = replay(exec);

    SimFaultConfig faults;
    faults.torn_tail = 0.6;
    faults.bit_flip = 0.1;
    faults.seed = seed;
    SimStorage storage(faults);
    const DurabilityPolicy policy = test_policy(rng);
    auto sys = std::make_unique<DurableSystem>(exec.process_count(), storage,
                                               policy);
    std::set<EventId> is_source;
    for (const Message& msg : exec.messages()) is_source.insert(msg.source);
    const std::vector<EventId>& order = exec.topological_order();
    storage.crash_after_ops(1 + rng.below(order.size()));
    bool crashed = false;
    std::size_t i = 0;
    while (i < order.size()) {
      const EventId e = order[i];
      try {
        if (e.index > sys->system().executed(e.process)) {
          const auto incoming = exec.incoming(e);
          if (!incoming.empty()) {
            std::vector<WireMessage> msgs;
            for (const EventId& src : incoming) {
              msgs.push_back(sys->system().wire_of(src));
            }
            sys->deliver_all(e.process, msgs);
          } else if (is_source.count(e)) {
            sys->send(e.process);
          } else {
            sys->local(e.process);
          }
        }
        if ((i + 1) % 7 == 0) {
          sys->compact(sys->system().retention_watermark());
        }
        ++i;
      } catch (const StorageCrash&) {
        ASSERT_FALSE(crashed);
        crashed = true;
        sys = std::make_unique<DurableSystem>(exec.process_count(), storage,
                                              policy);
        i = 0;  // re-scan; recovered events are skipped, lost ones re-driven
      }
    }
    EXPECT_TRUE(crashed);

    for (ProcessId p = 0; p < exec.process_count(); ++p) {
      ASSERT_EQ(sys->system().executed(p), oracle.executed(p)) << "p=" << p;
      EXPECT_EQ(sys->system().current_clock(p), oracle.current_clock(p));
      for (EventIndex j = sys->system().reclaimed_before(p) + 1;
           j <= sys->system().executed(p); ++j) {
        const EventId e{p, j};
        EXPECT_EQ(sys->system().clock_of(e), oracle.clock_of(e));
        EXPECT_EQ(sys->system().time_of(e), oracle.time_of(e));
      }
    }
  }
}

// --- satellite: hardened ingress quarantines garbage, never aborts --------

TEST(QuarantineTest, LinkDecoderRejectsGarbageWithoutStateDamage) {
  LinkEncoder enc(3, 4);
  LinkDecoder dec(3);
  OnlineSystem sys(3);
  const WireMessage w1 = sys.send(0);
  sys.deliver(1, w1);
  const WireMessage w2 = sys.wire_of(EventId{1, 1});

  std::vector<std::uint8_t> frames;
  enc.encode(w1, frames);
  const std::size_t boundary = frames.size();
  enc.encode(w2, frames);

  // Garbage: random bytes are rejected and the input span is not consumed.
  const std::vector<std::uint8_t> junk = {0xde, 0xad, 0xbe, 0xef, 0x99};
  std::span<const std::uint8_t> junk_in = junk;
  WireMessage out;
  EXPECT_FALSE(dec.try_decode(junk_in, out));
  EXPECT_EQ(junk_in.size(), junk.size());

  // A bit-flipped first frame is rejected; the pristine copy still decodes,
  // proving the failed attempt left no partial decoder state behind.
  std::vector<std::uint8_t> flipped(frames.begin(),
                                    frames.begin() +
                                        static_cast<std::ptrdiff_t>(boundary));
  flipped[flipped.size() / 2] ^= 0x40;
  std::span<const std::uint8_t> flipped_in = flipped;
  const bool flipped_ok = dec.try_decode(flipped_in, out);
  std::span<const std::uint8_t> good_in = frames;
  ASSERT_TRUE(dec.try_decode(good_in, out));
  EXPECT_EQ(out.source, w1.source);
  EXPECT_EQ(out.clock, w1.clock);
  ASSERT_TRUE(dec.try_decode(good_in, out));
  EXPECT_EQ(out.source, w2.source);
  EXPECT_EQ(out.clock, w2.clock);
  // (flipped_ok may rarely be true if the flip lands in a don't-care bit;
  // the invariant under test is the pristine stream decoding either way.)
  (void)flipped_ok;
}

TEST(QuarantineTest, TryDeliverQuarantinesMalformedMessages) {
  OnlineSystem sys(2);
  const WireMessage good = sys.send(0);

  // Out-of-range process, zero index, clock that violates the Fidge
  // convention: all quarantined, none aborts, nothing executes.
  WireMessage bad = good;
  bad.source.process = 7;
  EXPECT_FALSE(sys.try_deliver(1, bad));
  bad = good;
  bad.source.index = 0;
  EXPECT_FALSE(sys.try_deliver(1, bad));
  bad = good;
  bad.clock = VectorClock({9, 9});  // clock[0] != index + 1
  EXPECT_FALSE(sys.try_deliver(1, bad));
  EXPECT_EQ(sys.quarantined(), 3u);
  EXPECT_EQ(sys.executed(1), 0u);

  // The clean message still goes through afterwards.
  EventId receipt;
  ASSERT_TRUE(sys.try_deliver(1, good, OnlineSystem::kNoTime, &receipt));
  EXPECT_EQ(receipt, (EventId{1, 1}));
  EXPECT_EQ(sys.quarantined(), 3u);
}

TEST(QuarantineTest, MonitorQuarantinesGarbageReportsAndKeepsServing) {
  OnlineSystem sys(2);
  OnlineMonitor mon(2);
  mon.begin("A");
  const WireMessage w = sys.send(0);
  mon.record("A", w.source);

  WireMessage bad = w;
  bad.clock = VectorClock({3, 1, 4});  // wrong width
  EXPECT_FALSE(mon.observe(bad));
  bad = w;
  bad.source.process = 9;
  EXPECT_FALSE(mon.observe(bad));
  bad = w;
  bad.clock = VectorClock({7, 0});  // violates clock[p] == index + 1
  EXPECT_FALSE(mon.observe(bad));
  EXPECT_EQ(mon.quarantined(), 3u);
  EXPECT_EQ(mon.recorded_events("A"), 0u);

  EXPECT_TRUE(mon.observe(w));  // clean traffic unaffected
  EXPECT_EQ(mon.quarantined(), 3u);
  mon.complete("A");

  // The quarantine count surfaces on the health report.
  bool found = false;
  for (const auto& row : mon.health_metrics()) {
    if (row.metric == "syncon_monitor_quarantined_reports") {
      found = true;
      EXPECT_EQ(row.value, 3u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(QuarantineTest, DurableSystemNeverJournalsQuarantinedInput) {
  SimStorage storage;
  DurableSystem sys(2, storage);
  const WireMessage w = sys.send(0);
  WireMessage bad = w;
  bad.clock = VectorClock({9, 9});
  const std::uint64_t before = sys.store().records_appended();
  EXPECT_FALSE(sys.try_deliver(1, bad));
  EXPECT_EQ(sys.store().records_appended(), before);  // nothing journaled
  EXPECT_TRUE(sys.try_deliver(1, w));
  EXPECT_EQ(sys.store().records_appended(), before + 1);
}

// A journaled event whose message source is too wide for its 32-bit field
// is an unusable record: replay must skip it, never restore the event with
// the source a plain cast truncates it to.
TEST(QuarantineTest, WalReplaySkipsAnOutOfRangeEventSource) {
  for (const std::uint64_t source_process :
       {std::uint64_t{0}, std::uint64_t{1} << 32}) {
    SCOPED_TRACE(source_process);
    SimStorage storage;
    {
      DurableSystem sys(2, storage);
      sys.send(0);  // (0, 1)
      // The journal record of (1, 1), clock [2 2], received from
      // (source_process, 1): kEvent, a full link frame, the sources, time.
      std::vector<std::uint8_t> body = {1, 0, 1, 1};
      VectorClock({2, 2}).encode(body);
      encode_varint(1, body);
      encode_varint(source_process, body);
      encode_varint(1, body);
      encode_signed_varint(OnlineSystem::kNoTime, body);
      const EventId touches[] = {{1, 1}, {0, 1}};
      sys.store().append(body, touches);
      sys.sync();
    }
    DurableSystem recovered(2, storage);
    const bool in_range = source_process == 0;
    EXPECT_EQ(recovered.recovery().records_quarantined, in_range ? 0u : 1u);
    EXPECT_EQ(recovered.recovery().events_replayed, in_range ? 2u : 1u);
    EXPECT_EQ(recovered.system().executed(1), in_range ? 1u : 0u);
  }
}

// --- OnlineMonitor::resync: the one gap-closing loop ------------------------

// Fires one R3(L, U) watch over two single-report actions of process 1 and
// returns its confidence.
Confidence watch_confidence(OnlineMonitor& mon, OnlineSystem& sys) {
  std::optional<Confidence> fired;
  for (const std::string label : {"A", "B"}) {
    const WireMessage w = sys.send(1);
    mon.begin(label);
    mon.record(label, w.source);
    mon.observe(w);
  }
  mon.watch({Relation::R3, ProxyKind::Begin, ProxyKind::End}, "A", "B",
            [&](const std::string&, const std::string&, bool, Confidence c) {
              fired = c;
            });
  mon.complete("A");
  mon.complete("B");
  EXPECT_TRUE(fired.has_value());
  return fired.value_or(Confidence::Definite);
}

TEST(ResyncTest, AGapTheLogCannotServeStaysPendingWithoutARound) {
  OnlineSystem app(2);
  app.send(0);  // its report is lost
  OnlineMonitor mon(2);
  mon.observe(app.send(0));  // vouches for the lost one
  ASSERT_EQ(mon.missing_report_count(), 1u);

  // A log that never executed (0, 1) — a crashed process's, say — cannot
  // serve it, so resync never asks.
  const OnlineSystem log(2);
  std::size_t fed = 0;
  EXPECT_EQ(mon.resync(log, 8, [&](const WireMessage&) { ++fed; }), 0u);
  EXPECT_EQ(fed, 0u);
  EXPECT_EQ(mon.missing_report_count(), 1u);

  // The gap is still a gap: a verdict across it stays PendingGap.
  EXPECT_EQ(watch_confidence(mon, app), Confidence::PendingGap);
}

TEST(ResyncTest, ChunkedRequestsCloseEveryGap) {
  OnlineSystem sys(2);
  for (int i = 0; i < 4; ++i) sys.send(0);  // four lost reports
  OnlineMonitor mon(2);
  mon.observe(sys.send(0));
  ASSERT_EQ(mon.missing_report_count(), 4u);

  std::vector<EventId> fed;
  EXPECT_EQ(mon.resync(sys, 3,
                       [&](const WireMessage& w) {
                         fed.push_back(w.source);
                         mon.observe(w);
                       }),
            2u);  // 3 + 1
  EXPECT_EQ(fed, (std::vector<EventId>{{0, 1}, {0, 2}, {0, 3}, {0, 4}}));
  EXPECT_EQ(mon.missing_report_count(), 0u);
  EXPECT_EQ(mon.resync(sys, 3, [](const WireMessage&) {}), 0u);
  EXPECT_EQ(watch_confidence(mon, sys), Confidence::Definite);
  EXPECT_THROW(mon.resync(sys, 0, [](const WireMessage&) {}),
               ContractViolation);
}

TEST(ResyncTest, ServableGapsBehindAnUnservableChunkClose) {
  // The monitor misses p0's 4 reports and p1's 3. The log executed only
  // p1's events, and missing reports are listed process by process, so p0's
  // must not hold up p1's.
  OnlineSystem app(2);
  for (int i = 0; i < 4; ++i) app.local(0);
  for (int i = 0; i < 3; ++i) app.local(1);
  OnlineMonitor mon(2);
  mon.checkpoint(app.snapshot());
  ASSERT_EQ(mon.missing_report_count(), 7u);

  OnlineSystem log(2);
  for (int i = 0; i < 3; ++i) log.local(1);
  std::vector<EventId> fed;
  const std::size_t rounds = mon.resync(log, 2, [&](const WireMessage& w) {
    fed.push_back(w.source);
    mon.observe(w);
  });
  EXPECT_EQ(fed, (std::vector<EventId>{{1, 1}, {1, 2}, {1, 3}}));
  EXPECT_EQ(mon.missing_reports(),
            (std::vector<EventId>{{0, 1}, {0, 2}, {0, 3}, {0, 4}}));
  // Only p1's reports are requested: two chunks.
  EXPECT_EQ(rounds, 2u);
}

TEST(ResyncTest, ClaimsBeyondTheLogAreNeverRequested) {
  // A checkpoint claims 2^20 events of p0, but the log executed 3. Only
  // those are requested, one per round at chunk 1; the rest stay missing
  // without costing a round (or a request entry) each.
  constexpr std::size_t kClaimed = std::size_t{1} << 20;
  OnlineSystem log(2);
  for (int i = 0; i < 3; ++i) log.local(0);
  OnlineMonitor mon(2);
  VectorClock claim(2, 0);
  claim.set(0, static_cast<ClockValue>(kClaimed + 1));  // counts the dummy
  mon.checkpoint(claim);
  ASSERT_EQ(mon.missing_report_count(), kClaimed);

  std::size_t fed = 0;
  const std::size_t rounds = mon.resync(log, 1, [&](const WireMessage& w) {
    ++fed;
    mon.observe(w);
  });
  EXPECT_EQ(rounds, 3u);
  EXPECT_EQ(fed, 3u);
  EXPECT_EQ(mon.missing_report_count(), kClaimed - 3);
}

TEST(ResyncTest, LateJoinerAdoptsTheSurfaceOfACompactedLog) {
  OnlineSystem sys(3);
  for (ProcessId p = 0; p < 3; ++p) {
    for (int i = 0; i < 3; ++i) sys.deliver((p + 1) % 3, sys.send(p));
  }
  sys.compact(sys.snapshot());  // reclaims the whole log
  ASSERT_EQ(sys.live_log_events(), 0u);

  OnlineMonitor late(3);
  late.checkpoint(sys.snapshot());
  ASSERT_GT(late.missing_report_count(), 0u);
  std::size_t surface = 0;
  late.resync(sys, 4, [&](const WireMessage& w) {
    if (!sys.is_live(w.source)) ++surface;
    late.observe(w);
  });
  EXPECT_GE(surface, 1u);
  EXPECT_EQ(late.missing_report_count(), 0u);
}

}  // namespace
}  // namespace syncon
