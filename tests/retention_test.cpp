// The retention subsystem (DESIGN.md §3.10): watermark-cut compaction keeps
// the online log bounded while every observable answer — resync replies,
// duplicate suppression, monitor verdicts — stays identical to the
// uncompacted run. Plus the delivery-path fixes that ride along: the
// time-monotonicity floor, in-batch duplicate suppression, and chunked
// resync of large gaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cuts/watermark.hpp"
#include "helpers.hpp"
#include "monitor/trace_io.hpp"
#include "online/gap_tracker.hpp"
#include "online/online_monitor.hpp"
#include "online/online_system.hpp"
#include "sim/soak.hpp"
#include "store/durable.hpp"
#include "store/storage.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

// ---------------------------------------------------------------------------
// GapTracker: bounded enumeration and checkpoint adoption.
// ---------------------------------------------------------------------------

TEST(GapTrackerRetentionTest, MissingLimitChunksTheEnumeration) {
  GapTracker g(2);
  g.claim(0, 100);
  EXPECT_EQ(g.missing_count(), 100u);
  const std::vector<EventId> chunk = g.missing(10);
  ASSERT_EQ(chunk.size(), 10u);
  EXPECT_EQ(chunk.front(), (EventId{0, 1}));
  EXPECT_EQ(chunk.back(), (EventId{0, 10}));
  EXPECT_EQ(g.resync_request(10).events, chunk);
  // Witnessed indices punch holes out of the count without materializing it.
  EXPECT_TRUE(g.witness(EventId{0, 5}));
  EXPECT_EQ(g.missing_count(), 99u);
  EXPECT_EQ(g.missing().size(), 99u);
  EXPECT_EQ(g.missing(4),
            (std::vector<EventId>{
                EventId{0, 1}, EventId{0, 2}, EventId{0, 3}, EventId{0, 4}}));
}

TEST(GapTrackerRetentionTest, ContiguousPrefixIgnoresAheadArrivals) {
  GapTracker g(2);
  EXPECT_EQ(g.contiguous_prefix(0), 0u);
  g.witness(EventId{0, 1});
  g.witness(EventId{0, 3});  // out of order: parked ahead
  EXPECT_EQ(g.contiguous_prefix(0), 1u);
  g.witness(EventId{0, 2});  // closes the hole, absorbs 3
  EXPECT_EQ(g.contiguous_prefix(0), 3u);
  EXPECT_EQ(g.contiguous_prefix(1), 0u);
}

TEST(GapTrackerRetentionTest, ForgiveAdoptsCheckpointPrefix) {
  GapTracker g(2);
  g.claim(0, 10);
  g.witness(EventId{0, 4});
  g.witness(EventId{0, 6});
  EXPECT_EQ(g.witnessed_count(), 2u);
  // A checkpoint covering (0, 1..5) closes the holes below it; the parked
  // arrival at 6 becomes contiguous and is absorbed.
  g.forgive(0, 5);
  EXPECT_EQ(g.contiguous_prefix(0), 6u);
  EXPECT_TRUE(g.witnessed(EventId{0, 3}));
  EXPECT_EQ(g.missing(), (std::vector<EventId>{EventId{0, 7}, EventId{0, 8},
                                               EventId{0, 9}, EventId{0, 10}}));
  // Forgiven events are not real arrivals.
  EXPECT_EQ(g.witnessed_count(), 2u);
  // Forgiving below the prefix is a no-op.
  g.forgive(0, 2);
  EXPECT_EQ(g.contiguous_prefix(0), 6u);
}

TEST(GapTrackerRetentionTest, SortedArrayMatchesASetModel) {
  // The out-of-order entries live in one sorted array whose absorbed front
  // is dropped lazily; a std::set of witnessed indices is the model.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Xoshiro256StarStar rng(seed);
    GapTracker g(2);
    std::set<EventIndex> witnessed;  // process 0 only
    EventIndex forgiven = 0;
    EventIndex claimed = 0;
    for (int step = 0; step < 2000; ++step) {
      const auto i = static_cast<EventIndex>(1 + rng.next() % 300);
      switch (rng.next() % 8) {
        case 0:
          claimed = std::max(claimed, i);
          g.claim(0, i);
          break;
        case 1:
          if (rng.next() % 8 == 0) {
            forgiven = std::max(forgiven, i);
            g.forgive(0, i);
          }
          break;
        default: {
          const bool fresh = i > forgiven && witnessed.insert(i).second;
          ASSERT_EQ(g.witness(EventId{0, i}), fresh) << "step " << step;
        }
      }
      const auto covered = [&](EventIndex k) {
        return k <= forgiven || witnessed.count(k) != 0;
      };
      EventIndex prefix = 0;
      while (covered(prefix + 1)) ++prefix;
      ASSERT_EQ(g.contiguous_prefix(0), prefix) << "step " << step;
      std::vector<EventId> holes;
      for (EventIndex k = 1; k <= claimed; ++k) {
        if (!covered(k)) holes.push_back(EventId{0, k});
      }
      ASSERT_EQ(g.missing(), holes) << "step " << step;
      ASSERT_EQ(g.missing_count(), holes.size());
      ASSERT_EQ(g.witnessed(EventId{0, i}), covered(i));
    }
  }
}

// ---------------------------------------------------------------------------
// Delivery-path fixes.
// ---------------------------------------------------------------------------

TEST(RetentionTest, UntimedEventsDoNotResetTheTimeFloor) {
  OnlineSystem sys(1);
  sys.local(0, 100);
  sys.local(0);  // untimed — must not lower the floor
  // The floor is still 100: equal or earlier stamps are rejected.
  EXPECT_THROW(sys.local(0, 100), ContractViolation);
  EXPECT_THROW(sys.local(0, 50), ContractViolation);
  sys.local(0, 101);
  EXPECT_EQ(sys.executed(0), 3u);  // the rejected events never executed
}

TEST(RetentionTest, DeliverAllSuppressesInBatchDuplicates) {
  OnlineSystem sys(2);
  const WireMessage m1 = sys.send(0, 10);
  const WireMessage m2 = sys.send(0, 20);
  const std::vector<WireMessage> batch{m1, m2, m1, m2, m1};
  const EventId r = sys.deliver_all(1, batch, 30);
  EXPECT_EQ(r, (EventId{1, 1}));
  EXPECT_EQ(sys.duplicates_suppressed(), 3u);

  // Bit-identical to the duplicate-free batch: same clocks, same causal
  // structure (one receive with two sources, not five).
  OnlineSystem ref(2);
  const WireMessage n1 = ref.send(0, 10);
  const WireMessage n2 = ref.send(0, 20);
  const std::vector<WireMessage> clean{n1, n2};
  ref.deliver_all(1, clean, 30);
  EXPECT_EQ(sys.current_clock(1), ref.current_clock(1));
  EXPECT_EQ(trace_to_string(sys.to_execution()),
            trace_to_string(ref.to_execution()));

  // A batch that is duplicates through and through is an idempotent no-op.
  EXPECT_EQ(sys.deliver_all(1, batch), r);
  EXPECT_EQ(sys.executed(1), 1u);
}

TEST(RetentionTest, ChunkedResyncConvergesOnLargeGap) {
  constexpr std::size_t kSends = 40;
  constexpr std::size_t kChunk = 7;
  OnlineSystem sys(2);
  OnlineSystem ref(2);
  std::vector<WireMessage> wires;
  for (std::size_t i = 0; i < kSends; ++i) {
    wires.push_back(sys.send(0));
    ref.deliver(1, ref.send(0));
  }
  // Only the last message lands: its clock exposes all 39 holes at once.
  sys.deliver(1, wires.back());
  EXPECT_TRUE(sys.has_gap(1));
  EXPECT_EQ(sys.missing_at(1).size(), kSends - 1);
  EXPECT_EQ(sys.missing_at(1, kChunk).size(), kChunk);

  // Recover in bounded chunks instead of one 39-event request.
  std::size_t rounds = 0;
  while (sys.has_gap(1)) {
    ASSERT_LT(rounds++, 10u) << "chunked resync failed to converge";
    for (const WireMessage& m : sys.serve(sys.resync_request(1, kChunk))) {
      sys.deliver(1, m);
    }
  }
  EXPECT_EQ(rounds, (kSends - 1 + kChunk - 1) / kChunk);
  EXPECT_EQ(sys.current_clock(1), ref.current_clock(1));
}

// ---------------------------------------------------------------------------
// Compaction: the watermark cut, the checkpoint, and checkpoint serving.
// ---------------------------------------------------------------------------

TEST(RetentionTest, CompactReclaimsPrefixAndRecordsCheckpoint) {
  OnlineSystem sys(2);
  sys.local(0, 10);                         // 0:1
  const WireMessage m = sys.send(0, 20);    // 0:2
  const EventId r = sys.deliver(1, m, 30);  // 1:1
  sys.local(1, 40);                         // 1:2
  EXPECT_EQ(sys.live_log_events(), 4u);
  EXPECT_EQ(sys.checkpoint().sequence, 0u);

  // Cut {3,1}: reclaim p0's two events, keep p1 whole.
  EXPECT_EQ(sys.compact(VectorClock({3, 1})), 2u);
  EXPECT_EQ(sys.live_log_events(), 2u);
  EXPECT_EQ(sys.reclaimed_events(), 2u);
  EXPECT_EQ(sys.reclaimed_before(0), 2u);
  EXPECT_EQ(sys.reclaimed_before(1), 0u);
  EXPECT_FALSE(sys.is_live(EventId{0, 1}));
  EXPECT_FALSE(sys.is_live(EventId{0, 2}));
  EXPECT_TRUE(sys.is_live(EventId{1, 1}));

  // The frontier is untouched: executed counts, snapshot and current clocks
  // answer exactly as before the compaction.
  EXPECT_EQ(sys.executed(0), 2u);
  EXPECT_EQ(sys.executed(1), 2u);
  EXPECT_EQ(sys.snapshot(), VectorClock({3, 3}));

  // The checkpoint remembers the cut's surface event on p0 — the send —
  // whose clock vouches for everything reclaimed.
  const RetentionCheckpoint& cp = sys.checkpoint();
  EXPECT_EQ(cp.cut, VectorClock({3, 1}));
  EXPECT_EQ(cp.surface_clocks[0], m.clock);
  EXPECT_EQ(cp.surface_times[0], 20);
  EXPECT_EQ(cp.surface_times[1], OnlineSystem::kNoTime);
  EXPECT_EQ(cp.sequence, 1u);

  // Reclaimed entries are gone: direct lookups fail loudly…
  EXPECT_THROW(sys.clock_of(EventId{0, 1}), ContractViolation);
  EXPECT_THROW(sys.time_of(EventId{0, 2}), ContractViolation);
  // …but the retransmission path answers from the checkpoint surface.
  const WireMessage surface = sys.wire_of(EventId{0, 1});
  EXPECT_EQ(surface.source, (EventId{0, 2}));
  EXPECT_EQ(surface.clock, m.clock);

  // serve() collapses every reclaimed event of a process into one surface
  // reply; live events are still served verbatim.
  const std::vector<WireMessage> replies =
      sys.serve(RetransmitRequest{{EventId{0, 1}, EventId{0, 2}, r}});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].source, (EventId{0, 2}));
  EXPECT_EQ(replies[1].source, r);

  // Idempotence survives the dedup records being reclaimed: a duplicate of
  // an already-consumed source is still suppressed, answered with the
  // "consumed before the checkpoint" sentinel.
  EXPECT_TRUE(sys.already_delivered(1, m.source));
  const std::uint64_t dups = sys.duplicates_suppressed();
  EXPECT_EQ(sys.deliver(1, m), (EventId{1, 0}));
  EXPECT_EQ(sys.duplicates_suppressed(), dups + 1);
  EXPECT_EQ(sys.executed(1), 2u);

  // A compacted log cannot materialize its full execution.
  EXPECT_THROW(sys.to_execution(), ContractViolation);
}

TEST(RetentionTest, CompactIsMonotoneAndClampedToTheLog) {
  OnlineSystem sys(2);
  sys.local(0, 10);
  const WireMessage m = sys.send(0, 20);
  sys.deliver(1, m, 30);
  sys.local(1, 40);
  ASSERT_EQ(sys.compact(VectorClock({3, 1})), 2u);
  // A lower watermark never un-compacts.
  EXPECT_EQ(sys.compact(VectorClock({2, 1})), 0u);
  EXPECT_EQ(sys.checkpoint().cut, VectorClock({3, 1}));
  // A watermark past the frontier is clamped to executed + 1.
  EXPECT_EQ(sys.compact(VectorClock({99, 99})), 2u);
  EXPECT_EQ(sys.checkpoint().cut, VectorClock({3, 3}));
  EXPECT_EQ(sys.live_log_events(), 0u);
  EXPECT_EQ(sys.reclaimed_events(), 4u);
  // The system keeps running on the empty live log; ids keep counting from
  // the reclaimed base and times from the last timed floor.
  EXPECT_EQ(sys.local(0, 50), (EventId{0, 3}));
  EXPECT_EQ(sys.live_log_events(), 1u);
  EXPECT_EQ(sys.executed(0), 3u);
}

TEST(RetentionTest, RetentionWatermarkTracksReceiverPrefixes) {
  OnlineSystem sys(2);
  const WireMessage m1 = sys.send(0);
  const WireMessage m2 = sys.send(0);
  // Nothing witnessed yet: nothing reclaimable.
  EXPECT_EQ(sys.retention_watermark(), VectorClock({1, 1}));
  sys.deliver(1, m1);
  EXPECT_EQ(sys.retention_watermark(), VectorClock({2, 1}));
  sys.deliver(1, m2);
  // p1 witnessed all of p0; p0 never sees p1's receives, so p1's component
  // stays pinned (the documented sparse-mesh stall).
  EXPECT_EQ(sys.retention_watermark(), VectorClock({3, 1}));
  EXPECT_EQ(sys.compact(sys.retention_watermark()), 2u);
  EXPECT_EQ(sys.reclaimed_before(0), 2u);
  EXPECT_EQ(sys.reclaimed_before(1), 0u);
}

TEST(RetentionTest, SingleProcessWatermarkCoversEverything) {
  OnlineSystem sys(1);
  sys.local(0);
  sys.local(0);
  EXPECT_EQ(sys.retention_watermark(), VectorClock({3}));
  EXPECT_EQ(sys.compact(sys.retention_watermark()), 2u);
  EXPECT_EQ(sys.live_log_events(), 0u);
}

// ---------------------------------------------------------------------------
// The monitor's side of the contract: the pin, and checkpoint adoption.
// ---------------------------------------------------------------------------

TEST(RetentionTest, WatermarkPinHoldsGapsAndOpenActions) {
  OnlineSystem sys(2);
  sys.local(0, 10);                       // 0:1
  const WireMessage m = sys.send(0, 20);  // 0:2

  OnlineMonitor mon(2);
  mon.begin("A");
  mon.record("A", m.source);
  // Only 0:2's report arrives; its clock claims 0:1 — a gap.
  mon.observe(sys.wire_of(m.source), 20);
  EXPECT_EQ(mon.missing_report_count(), 1u);
  // The pin sits at the gap: 0:1 must stay servable.
  VectorClock pin = mon.watermark_pin();
  EXPECT_EQ(pin.at(0), 1u);

  // Resync closes the gap; the open action now pins at its least recorded
  // index (0:2), not at the witnessed prefix.
  for (const WireMessage& reply : sys.serve(mon.resync_request())) {
    mon.observe(reply);
  }
  EXPECT_EQ(mon.missing_report_count(), 0u);
  pin = mon.watermark_pin();
  EXPECT_EQ(pin.at(0), 2u);

  // Completion releases the action's pin; only the prefix bound remains.
  mon.complete("A");
  pin = mon.watermark_pin();
  EXPECT_EQ(pin.at(0), 3u);
  EXPECT_EQ(pin.at(1), 1u);  // nothing of p1 ever witnessed

  // The pin is a safe compaction bound: everything below it reclaims.
  const VectorClock pins[] = {pin};
  EXPECT_EQ(sys.compact(low_watermark(pins)), 2u);
}

TEST(RetentionTest, LateJoinerConvergesAcrossTheWatermark) {
  constexpr std::size_t kSends = 6;
  OnlineSystem sys(2);
  for (std::size_t i = 0; i < kSends; ++i) {
    sys.deliver(1, sys.send(0));
  }
  // Reclaim everything the in-system receiver witnessed: all of p0.
  ASSERT_EQ(sys.compact(sys.retention_watermark()), kSends);

  // A monitor born after the compaction: the authoritative snapshot claims
  // every event ever executed, so its resync crosses the watermark.
  OnlineMonitor late(2);
  late.checkpoint(sys.snapshot());
  EXPECT_EQ(late.missing_report_count(), 2 * kSends);

  std::size_t surface_replies = 0;
  std::size_t rounds = 0;
  while (late.missing_report_count() > 0) {
    ASSERT_LT(rounds++, 10u) << "late joiner failed to converge";
    for (const WireMessage& reply : sys.serve(late.resync_request(4))) {
      if (reply.source.index <= sys.reclaimed_before(reply.source.process)) {
        ++surface_replies;
      }
      late.observe(reply);
    }
    // The surface reply cannot replay the reclaimed events themselves; the
    // checkpoint closes those gaps for good.
    late.adopt_checkpoint(sys.checkpoint());
  }
  EXPECT_GT(surface_replies, 0u);
  EXPECT_EQ(late.missing_report_count(), 0u);
  // Reclaimed reports count as covered, not as arrivals.
  EXPECT_TRUE(late.degraded());
}

// ---------------------------------------------------------------------------
// Soak: the three retention guarantees at once, on the shared harness.
// SYNCON_TEST_ITERS dials the cycle count (e.g. =5000 for a long soak).
// ---------------------------------------------------------------------------

/// The soak's compacted leg: 4 processes, lossy reports, compaction every
/// 48 cycles.
SoakConfig compacted_soak() {
  SoakConfig config;
  TenantWorkload& w = config.workload;
  w.processes = 4;
  w.cycles = static_cast<std::uint64_t>(
      std::max(240, syncon::testing::test_iters(600)));
  w.action_every = 8;
  w.recover_every = 24;
  w.compact_every = 48;
  w.resync_chunk = 64;
  w.report_link.drop_probability = 0.08;
  w.report_link.duplicate_probability = 0.04;
  w.report_link.reorder_probability = 0.08;
  w.report_link.min_delay = 1;
  w.report_link.max_delay = 30;
  w.seed = 2026;
  return config;
}

/// The same application execution (the app links and their seed are
/// shared), clean report feed, never compacted.
SoakConfig clean_reference(SoakConfig config) {
  config.workload.report_link = LinkFaultConfig{};
  config.workload.compact_every = 0;
  return config;
}

/// The three retention guarantees of a compacted faulty run against its
/// clean, uncompacted reference.
void expect_retention_guarantees(const SoakResult& compacted,
                                 const SoakResult& clean) {
  // The faults and the compactions really happened.
  EXPECT_GT(compacted.report_stats.dropped, 0u);
  EXPECT_GT(compacted.reclaimed_events, 0u);
  EXPECT_GT(compacted.compactions, 1u);
  EXPECT_EQ(clean.reclaimed_events, 0u);
  EXPECT_EQ(compacted.executed_events, clean.executed_events);

  // (a) Verdict identity: the Definite-firing sequence of the faulty,
  // compacted run is bit-identical to the clean, uncompacted run.
  ASSERT_FALSE(clean.definite_verdicts.empty());
  EXPECT_EQ(compacted.definite_verdicts, clean.definite_verdicts);

  // (b) Bounded memory: the live log plateaus — the steady-state half of
  // the post-compaction samples stays within slack of the warm-up half,
  // while the uncompacted log grows with the event count.
  ASSERT_GE(compacted.live_log_samples.size(), 4u);
  std::size_t first_max = 0, second_max = 0;
  const std::size_t half = compacted.live_log_samples.size() / 2;
  for (std::size_t i = 0; i < compacted.live_log_samples.size(); ++i) {
    auto& side = i < half ? first_max : second_max;
    side = std::max(side, compacted.live_log_samples[i]);
  }
  EXPECT_LE(second_max, first_max + first_max / 10 + 64);
  EXPECT_LT(compacted.live_log_final, clean.live_log_final);

  // (c) Checkpoint serving: the late joiner's resync crossed the watermark
  // and converged via surface reports + adopt_checkpoint. Only a run that
  // reclaimed events runs one.
  EXPECT_GT(compacted.surface_replies, 0u);
  EXPECT_TRUE(compacted.late_joiner_converged);
  EXPECT_FALSE(clean.late_joiner_converged);
}

TEST(RetentionSoakTest, CompactedFaultyRunKeepsCleanVerdictsAndPlateaus) {
  const SoakConfig compacted_cfg = compacted_soak();
  expect_retention_guarantees(run_soak(compacted_cfg),
                              run_soak(clean_reference(compacted_cfg)));
}

TEST(RetentionSoakTest, FaultyApplicationRingKeepsTheGuarantees) {
  // bench_longrun's application faults: drops, duplicates and reorders
  // change the execution, which re-shipping keeps converging. Both runs
  // share them, so both execute the same events.
  SoakConfig compacted_cfg = compacted_soak();
  LinkFaultConfig& app = compacted_cfg.workload.app_link.emplace();
  app.drop_probability = 0.02;
  app.duplicate_probability = 0.01;
  app.reorder_probability = 0.05;
  app.min_delay = 1;
  app.max_delay = 24;
  const SoakResult compacted = run_soak(compacted_cfg);
  const SoakResult clean = run_soak(clean_reference(compacted_cfg));
  EXPECT_GT(compacted.app_stats.dropped, 0u);
  EXPECT_EQ(compacted.app_stats.dropped, clean.app_stats.dropped);
  expect_retention_guarantees(compacted, clean);
}

TEST(RetentionSoakTest, ZeroResyncChunkIsRejected) {
  // A zero chunk requests nothing: every gap would stay open and every
  // verdict PendingGap, so the soak refuses it up front.
  SoakConfig config;
  config.workload.cycles = 64;
  config.workload.resync_chunk = 0;
  EXPECT_THROW(run_soak(config), ContractViolation);
}

// ---------------------------------------------------------------------------
// Compaction meets durability: a crash between compact() and the snapshot
// becoming durable must recover from the PREVIOUS snapshot plus a longer
// WAL tail — same final state, just more replay (DESIGN.md §3.12).
// ---------------------------------------------------------------------------

TEST(RetentionTest, CrashBeforeSnapshotDurableFallsBackToPriorSnapshot) {
  SimStorage storage;  // clean crash model: the crash point is the subject
  DurabilityPolicy policy;
  policy.sync_every = 1;
  policy.segment_records = 64;
  policy.full_interval = 4;
  auto sys = std::make_unique<DurableSystem>(2, storage, policy);
  OnlineSystem oracle(2);

  const auto drive = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      sys->deliver(1, sys->send(0));
      sys->deliver(0, sys->send(1));
      oracle.deliver(1, oracle.send(0));
      oracle.deliver(0, oracle.send(1));
    }
  };
  const auto cut_below_surface = [&] {
    // Counts-form cut covering everything but each process's last event.
    VectorClock w(2, 0);
    for (ProcessId p = 0; p < 2; ++p) {
      w.set(p, static_cast<ClockValue>(sys->system().executed(p)));
    }
    return w;
  };

  drive(4);
  sys->compact(cut_below_surface());  // snapshot #1, fully durable
  const VectorClock first_cut = sys->store().durable_cut();
  EXPECT_GT(sys->system().reclaimed_events(), 0u);

  drive(4);
  // The second compaction's snapshot never becomes durable: op 1 is the
  // log-before-checkpoint WAL sync, op 2 the snapshot-file append — crash.
  const VectorClock second_cut = cut_below_surface();
  ASSERT_NE(second_cut, first_cut);
  storage.crash_after_ops(2);
  EXPECT_THROW(sys->compact(second_cut), StorageCrash);

  auto recovered = std::make_unique<DurableSystem>(2, storage, policy);
  ASSERT_TRUE(recovered->recovery().recovered);
  const auto& info = recovered->store().recovery();
  ASSERT_TRUE(info.snapshot.has_value());
  // Fell back to the prior snapshot, paid for with a longer replayed tail.
  EXPECT_EQ(info.snapshot->checkpoint.cut, first_cut);
  EXPECT_GT(recovered->recovery().events_replayed, 0u);

  // No divergence: every live clock matches the never-compacted oracle,
  // and the recovered system keeps running and compacting.
  const auto expect_identical = [&] {
    for (ProcessId p = 0; p < 2; ++p) {
      ASSERT_EQ(recovered->system().executed(p), oracle.executed(p));
      EXPECT_EQ(recovered->system().current_clock(p), oracle.current_clock(p));
      for (EventIndex j = recovered->system().reclaimed_before(p) + 1;
           j <= recovered->system().executed(p); ++j) {
        EXPECT_EQ(recovered->system().clock_of(EventId{p, j}),
                  oracle.clock_of(EventId{p, j}));
      }
    }
  };
  expect_identical();

  for (int i = 0; i < 2; ++i) {
    recovered->deliver(1, recovered->send(0));
    recovered->deliver(0, recovered->send(1));
    oracle.deliver(1, oracle.send(0));
    oracle.deliver(0, oracle.send(1));
  }
  recovered->compact(second_cut);  // the retried compaction now sticks
  EXPECT_EQ(recovered->store().durable_cut(), second_cut);
  expect_identical();
}

}  // namespace
}  // namespace syncon
