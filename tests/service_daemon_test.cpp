// MonitorDaemon end-to-end: sharded multi-tenant ingest must yield, for
// every tenant, a Definite verdict log bit-identical to that tenant's
// standalone reference run — under clean load, under backpressure, under a
// memory budget that forces compaction, across journal-replay recovery,
// and with corrupt or spliced frames confined to the tenant they hit.
#include "service/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "service/load.hpp"
#include "service/tenant_codec.hpp"
#include "sim/soak.hpp"
#include "store/storage.hpp"
#include "store/wal.hpp"
#include "support/thread_pool.hpp"
#include "support/varint.hpp"

namespace syncon {
namespace {

using service::Admission;
using service::DaemonOptions;
using service::DaemonStats;
using service::FrameView;
using service::MonitorDaemon;
using service::PeekStatus;
using service::ServiceLoadConfig;
using service::ServiceLoadResult;
using service::TenantFrameEncoder;
using service::run_service_load;

TenantWorkload faulty_workload() {
  TenantWorkload workload;
  workload.report_link.drop_probability = 0.15;
  workload.report_link.duplicate_probability = 0.1;
  workload.report_link.reorder_probability = 0.2;
  workload.report_link.min_delay = 1;
  workload.report_link.max_delay = 24;
  return workload;
}

std::vector<std::vector<std::uint8_t>> encode_frames(
    TenantFrameEncoder& encoder, std::uint64_t tenant,
    const TenantScript& script) {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.emplace_back();
  encoder.encode_hello(tenant, script.processes, script.resync_chunk,
                       frames.back());
  for (const TenantOp& op : script.ops) {
    frames.emplace_back();
    encoder.encode_op(tenant, op, frames.back());
  }
  return frames;
}

/// Submits one frame, pumping until the daemon admits it.
void submit_or_pump(MonitorDaemon& daemon,
                    const std::vector<std::uint8_t>& frame) {
  for (;;) {
    const Admission admission = daemon.submit(frame);
    if (admission.accepted) return;
    daemon.pump();
  }
}

TEST(ServiceDaemonTest, ShardedLoadPreservesVerdictIdentity) {
  ThreadPool pool(4);
  DaemonOptions options;
  options.shards = 4;
  MonitorDaemon daemon(options, pool);

  ServiceLoadConfig config;
  config.tenants = 24;
  config.window = 8;
  config.batch = 8;
  config.workload = faulty_workload();
  config.seed = 99;
  const ServiceLoadResult result = run_service_load(config, daemon);

  EXPECT_TRUE(result.identity_ok);
  EXPECT_EQ(result.identity_mismatches, 0u);
  EXPECT_EQ(result.tenants_run, 24u);
  EXPECT_GT(result.verdicts_total, 0u);
  EXPECT_GT(result.total_events, 0u);
  EXPECT_EQ(result.daemon.frames_quarantined, 0u);
  EXPECT_EQ(result.daemon.frames_applied, result.total_frames);
}

TEST(ServiceDaemonTest, BackpressureRejectsThenConverges) {
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 2;
  options.queue_capacity = 2;  // tiny queues: rejections are guaranteed
  MonitorDaemon daemon(options, pool);

  ServiceLoadConfig config;
  config.tenants = 6;
  config.window = 6;
  config.batch = 16;  // far more than 2 shard slots per round
  config.workload = faulty_workload();
  config.seed = 7;
  const ServiceLoadResult result = run_service_load(config, daemon);

  EXPECT_GT(result.daemon.rejected_submits, 0u);
  EXPECT_TRUE(result.identity_ok);
  EXPECT_EQ(result.tenants_run, 6u);
  EXPECT_EQ(result.daemon.frames_quarantined, 0u);
}

TEST(ServiceDaemonTest, MemoryBudgetCompactsWithoutChangingVerdicts) {
  // The budget policy — each shard compacts its own changed sessions,
  // largest live log first, tenant id breaking ties, until it holds at most
  // its share (64 of the 128 here) — decides which sessions compact and
  // when; these counts pin its outcome, on every pool size. In the second
  // and third runs tenants finish while later ones still load the budget:
  // the second releases them, the third keeps them hosted with no further
  // ops.
  struct Expected {
    std::size_t tenants;
    std::size_t window;
    bool release_finished;
    std::uint64_t compactions;
    std::uint64_t reclaimed_events;
    std::size_t live_log_peak;
  };
  for (const Expected& expected : {Expected{8, 8, false, 73, 900, 463},
                                   Expected{16, 4, true, 84, 1615, 256},
                                   Expected{16, 4, false, 99, 1948, 256}}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      DaemonOptions options;
      options.shards = 2;
      options.memory_budget_events = 128;  // well under the live logs
      MonitorDaemon daemon(options, pool);

      ServiceLoadConfig config;
      config.tenants = expected.tenants;
      config.window = expected.window;
      config.workload = faulty_workload();
      config.seed = 3;
      config.release_finished = expected.release_finished;
      const ServiceLoadResult result = run_service_load(config, daemon);

      SCOPED_TRACE(std::string(expected.release_finished ? "released"
                                                         : "retained") +
                   ", " + std::to_string(threads) + " threads");
      EXPECT_EQ(result.tenants_run, expected.tenants);
      EXPECT_TRUE(result.identity_ok);
      EXPECT_EQ(result.daemon.compactions, expected.compactions);
      EXPECT_EQ(result.daemon.reclaimed_events, expected.reclaimed_events);
      EXPECT_EQ(result.daemon.live_log_peak, expected.live_log_peak);
    }
  }
}

// After every pump of a budgeted, journaled run, each shard holds at most
// its share of the budget (budget / shards, the remainder one event apiece
// to the lowest shards), or none of its sessions could reclaim more: on
// every process, compaction at the monitor's pin would not pass the
// replica's retention cut.
TEST(ServiceDaemonTest, EveryShardCompactsToItsShareAfterEveryPump) {
  SimStorage storage;
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 3;
  options.memory_budget_events = 200;  // shares 67, 67 and 66
  options.journal = &storage;
  MonitorDaemon daemon(options, pool);

  ServiceLoadConfig config;
  config.tenants = 18;
  config.window = 9;
  config.workload = faulty_workload();
  config.seed = 5;
  config.release_finished = true;
  std::uint64_t checks = 0, over_share = 0;
  config.on_round = [&](std::uint64_t round) {
    for (std::size_t s = 0; s < options.shards; ++s) {
      const std::size_t share = s < 2 ? 67 : 66;
      std::size_t live = 0;
      bool reclaimable = false;
      for (std::uint64_t t = s; t < config.tenants; t += options.shards) {
        const TenantSessionCore* core = daemon.session(t);
        if (core == nullptr) continue;
        live += core->system().live_log_events();
        const VectorClock pin = core->monitor().watermark_pin();
        const VectorClock& cut = core->system().checkpoint().cut;
        for (ProcessId p = 0; p < pin.size(); ++p) {
          const ClockValue executed =
              static_cast<ClockValue>(core->system().executed(p));
          reclaimable |= std::min(pin.at(p), executed + 1) > cut.at(p);
        }
      }
      ++checks;
      if (live > share) {
        ++over_share;
        EXPECT_FALSE(reclaimable) << "round " << round << ", shard " << s;
      }
    }
  };
  const ServiceLoadResult result = run_service_load(config, daemon);

  EXPECT_TRUE(result.identity_ok);
  EXPECT_GT(result.daemon.compactions, 0u);
  EXPECT_EQ(checks, 3 * result.rounds);
  // Both conditions occur: shards over their share hold only pinned events.
  EXPECT_GT(over_share, 0u);
  EXPECT_LT(over_share, checks);
}

TEST(ServiceDaemonTest, ReleaseDropsFinishedSessions) {
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 2;
  MonitorDaemon daemon(options, pool);

  ServiceLoadConfig config;
  config.tenants = 5;
  config.window = 2;
  config.workload = faulty_workload();
  config.release_finished = true;
  const ServiceLoadResult result = run_service_load(config, daemon);

  EXPECT_TRUE(result.identity_ok);
  EXPECT_EQ(daemon.stats().tenants, 0u);
  EXPECT_EQ(daemon.session(0), nullptr);
}

TEST(ServiceDaemonTest, CorruptFrameDegradesOnlyItsTenant) {
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 2;  // tenants 0 and 1 land on different shards
  MonitorDaemon daemon(options, pool);

  TenantWorkload workload = faulty_workload();
  workload.seed = 13;
  const TenantScript script_a = generate_tenant_script(workload);
  workload.seed = 17;
  const TenantScript script_b = generate_tenant_script(workload);
  TenantFrameEncoder encoder;
  const auto frames_a = encode_frames(encoder, 0, script_a);
  const auto frames_b = encode_frames(encoder, 1, script_b);

  const std::size_t corrupt_at = frames_a.size() / 2;
  // A copy of tenant 0's frame `corrupt_at` with its tenant varint flipped
  // to 1: submit routes it to tenant 1's shard, right where tenant 1 expects
  // that seq next, and only the CRC there keeps it out of tenant 1's stream.
  std::vector<std::uint8_t> rerouted = frames_a[corrupt_at];
  std::size_t tenant_byte = 0;
  while ((rerouted[tenant_byte++] & 0x80u) != 0) {  // the length prefix
  }
  ++tenant_byte;  // the kind byte
  ASSERT_EQ(rerouted[tenant_byte], 0u);
  rerouted[tenant_byte] = 1;

  const std::size_t n = std::max(frames_a.size(), frames_b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i < frames_a.size()) {
      if (i == corrupt_at) {
        std::vector<std::uint8_t> damaged = frames_a[i];
        damaged[damaged.size() / 2] ^= 0x40;
        // A corrupt envelope is swallowed (accepted) — retry cannot help.
        EXPECT_TRUE(daemon.submit(damaged).accepted);
        EXPECT_TRUE(daemon.submit(rerouted).accepted);
      } else {
        submit_or_pump(daemon, frames_a[i]);
      }
    }
    if (i < frames_b.size()) submit_or_pump(daemon, frames_b[i]);
  }
  daemon.pump();

  // Tenant 1 sailed through untouched; tenant 0 lost one frame and every
  // later frame fell into the sequence gap — quarantined, not crashed.
  EXPECT_EQ(daemon.verdicts(1), script_b.reference_verdicts);
  const DaemonStats stats = daemon.stats();
  // The damaged frame, the rerouted copy, and tenant 0's later frames.
  EXPECT_EQ(stats.frames_quarantined, frames_a.size() - corrupt_at + 1);
  EXPECT_EQ(stats.tenants, 2u);
}

TEST(ServiceDaemonTest, ReplayedFrameIsQuarantinedNotReapplied) {
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 2;
  MonitorDaemon daemon(options, pool);

  TenantWorkload workload = faulty_workload();
  workload.seed = 29;
  const TenantScript script = generate_tenant_script(workload);
  TenantFrameEncoder encoder;
  const auto frames = encode_frames(encoder, 0, script);

  std::size_t replays = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    submit_or_pump(daemon, frames[i]);
    if (i > 0 && i % 9 == 0) {
      submit_or_pump(daemon, frames[i]);  // spliced duplicate
      ++replays;
    }
  }
  daemon.pump();

  EXPECT_GT(replays, 0u);
  // Duplicates were rejected by the sequence guard before touching state:
  // the verdict log is exactly the reference despite the replays.
  EXPECT_EQ(daemon.verdicts(0), script.reference_verdicts);
  EXPECT_EQ(daemon.stats().frames_quarantined, replays);
}

// A CRC-clean report frame whose clock claims 2^62 components is a
// malformed body like any other: quarantined, and pump() returns.
TEST(ServiceDaemonTest, ImpossibleClockSizeIsQuarantined) {
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 2;
  MonitorDaemon daemon(options, pool);

  TenantWorkload workload = faulty_workload();
  workload.seed = 31;
  const TenantScript script = generate_tenant_script(workload);
  TenantFrameEncoder encoder;
  submit_or_pump(daemon, encode_frames(encoder, 0, script).front());

  // Payload: kind kReport, tenant 0, seq 1; body: a full link frame
  // (tag 0, source (0, 1)) claiming 2^62 components, then a label.
  std::vector<std::uint8_t> payload = {
      static_cast<std::uint8_t>(service::FrameKind::kReport), 0, 1, 0, 0, 1};
  encode_varint(std::uint64_t{1} << 62, payload);
  payload.insert(payload.end(), {2, 2, 2, 2, 1, 'x'});
  std::vector<std::uint8_t> frame;
  append_frame(payload, frame);
  FrameView view;
  ASSERT_EQ(service::peek_frame(frame, view), PeekStatus::kOk);
  submit_or_pump(daemon, frame);
  daemon.pump();

  EXPECT_EQ(daemon.stats().frames_quarantined, 1u);
  EXPECT_EQ(daemon.stats().tenants, 1u);
}

// A CRC-clean checkpoint may claim far more events than its tenant's
// journal ever held, behind a hello whose resync chunk is as large. Resync
// requests only what the replica holds, so the claim stays in its tenant:
// the pump returns, the clean tenants' verdicts are their references, and
// the claimed events stay missing.
TEST(ServiceDaemonTest, HostileCheckpointClaimStaysInItsTenant) {
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 2;
  MonitorDaemon daemon(options, pool);

  TenantWorkload workload = faulty_workload();
  workload.seed = 41;
  const TenantScript clean_a = generate_tenant_script(workload);
  workload.seed = 43;
  const TenantScript clean_b = generate_tenant_script(workload);
  workload.seed = 47;
  const TenantScript hostile = generate_tenant_script(workload);
  TenantFrameEncoder encoder;
  const auto frames_a = encode_frames(encoder, 0, clean_a);
  const auto frames_b = encode_frames(encoder, 1, clean_b);

  // Tenant 2 (tenant 0's shard): half of a real script, then the claim.
  std::vector<std::vector<std::uint8_t>> frames_h(1);
  encoder.encode_hello(2, hostile.processes, std::size_t{1} << 40,
                       frames_h.back());
  for (std::size_t i = 0; i < hostile.ops.size() / 2; ++i) {
    frames_h.emplace_back();
    encoder.encode_op(2, hostile.ops[i], frames_h.back());
  }
  TenantOp claim;
  claim.kind = TenantOp::Kind::kCheckpoint;
  claim.message.clock =
      VectorClock(hostile.processes, ClockValue{1} << 31);
  frames_h.emplace_back();
  encoder.encode_op(2, claim, frames_h.back());

  const std::size_t n =
      std::max({frames_a.size(), frames_b.size(), frames_h.size()});
  for (std::size_t i = 0; i < n; ++i) {
    if (i < frames_h.size()) submit_or_pump(daemon, frames_h[i]);
    if (i < frames_a.size()) submit_or_pump(daemon, frames_a[i]);
    if (i < frames_b.size()) submit_or_pump(daemon, frames_b[i]);
  }
  daemon.pump();

  EXPECT_EQ(daemon.verdicts(0), clean_a.reference_verdicts);
  EXPECT_EQ(daemon.verdicts(1), clean_b.reference_verdicts);
  EXPECT_EQ(daemon.stats().frames_quarantined, 0u);
  const TenantSessionCore* session = daemon.session(2);
  ASSERT_NE(session, nullptr);
  EXPECT_GT(session->monitor().missing_report_count(),
            std::size_t{1} << 31);
}

// A CRC-clean hello asking for more processes than a session may hold is
// quarantined before any session is sized by it, and pump() returns.
TEST(ServiceDaemonTest, OversizedHelloIsQuarantined) {
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 2;
  MonitorDaemon daemon(options, pool);

  TenantFrameEncoder encoder;
  std::vector<std::uint8_t> hello;
  encoder.encode_hello(5, service::kMaxTenantProcesses + 1, 8, hello);
  submit_or_pump(daemon, hello);
  daemon.pump();

  EXPECT_EQ(daemon.stats().frames_quarantined, 1u);
  EXPECT_EQ(daemon.stats().tenants, 0u);
}

TEST(ServiceDaemonTest, JournalRecoveryRebuildsEverySession) {
  SimStorage storage;
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 2;
  options.journal = &storage;

  std::vector<std::vector<std::string>> expected;
  {
    MonitorDaemon daemon(options, pool);
    ServiceLoadConfig config;
    config.tenants = 6;
    config.window = 6;
    config.workload = faulty_workload();
    config.seed = 41;
    const ServiceLoadResult result = run_service_load(config, daemon);
    ASSERT_TRUE(result.identity_ok);
    for (std::uint64_t t = 0; t < 6; ++t) expected.push_back(daemon.verdicts(t));
  }

  // Crash-restart: a fresh daemon over the same journal must rebuild every
  // session to the same verdict log, with nothing quarantined.
  MonitorDaemon recovered(options, pool);
  recovered.recover();
  EXPECT_EQ(recovered.stats().tenants, 6u);
  EXPECT_EQ(recovered.stats().frames_quarantined, 0u);
  for (std::uint64_t t = 0; t < 6; ++t) {
    EXPECT_EQ(recovered.verdicts(t), expected[t]) << "tenant " << t;
  }
}

// The journal contract: submit() only routes, so an accepted frame reaches
// the journal in the pump() that applies it — before it is applied — and is
// durable once that pump returns. Each pump syncs each tenant with frames
// in it once.
TEST(ServiceDaemonTest, PumpedFramesAreDurableWithOneSyncPerTenant) {
  SimStorage storage;
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 2;
  options.journal = &storage;
  MonitorDaemon daemon(options, pool);

  constexpr std::uint64_t kTenants = 3;
  TenantFrameEncoder encoder;
  TenantWorkload workload = faulty_workload();
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    workload.seed = 50 + t;
    frames.push_back(encode_frames(encoder, t, generate_tenant_script(workload)));
  }
  const auto object = [](std::uint64_t t) {
    return "tenant-" + std::to_string(t);
  };
  const auto journal_size = [&](std::uint64_t t) -> std::size_t {
    return storage.exists(object(t)) ? storage.size(object(t)) : 0;
  };

  std::vector<std::size_t> cursor(kTenants, 0);
  std::vector<std::vector<std::uint8_t>> expected_bytes(kTenants);
  // Half of tenant 0's frames, 5 per tenant per round; tenant 2 sits out
  // odd rounds, so the sync count follows the tenants with frames.
  for (std::size_t round = 0; cursor[0] < frames[0].size() / 2; ++round) {
    const std::vector<std::size_t> first = cursor;
    std::uint64_t tenants_with_frames = 0;
    for (std::uint64_t t = 0; t < kTenants; ++t) {
      if (t == 2 && round % 2 == 1) continue;
      for (; cursor[t] < std::min(first[t] + 5, frames[t].size());
           ++cursor[t]) {
        ASSERT_TRUE(daemon.submit(frames[t][cursor[t]]).accepted);
      }
      if (cursor[t] > first[t]) ++tenants_with_frames;
    }
    // Accepted, not yet pumped: no object holds this round's bytes.
    for (std::uint64_t t = 0; t < kTenants; ++t) {
      EXPECT_EQ(journal_size(t), expected_bytes[t].size()) << "tenant " << t;
    }

    const std::uint64_t syncs_before = storage.syncs();
    daemon.pump();
    EXPECT_EQ(storage.syncs() - syncs_before, tenants_with_frames)
        << "round " << round;
    for (std::uint64_t t = 0; t < kTenants; ++t) {
      for (std::size_t i = first[t]; i < cursor[t]; ++i) {
        expected_bytes[t].insert(expected_bytes[t].end(), frames[t][i].begin(),
                                 frames[t][i].end());
      }
      EXPECT_EQ(storage.read(object(t)), expected_bytes[t]) << "tenant " << t;
      EXPECT_EQ(storage.synced_size(object(t)), expected_bytes[t].size())
          << "tenant " << t;
    }
  }

  // A crash now loses nothing a pump returned from.
  storage.crash();
  MonitorDaemon recovered(options, pool);
  recovered.recover();
  std::size_t verdicts = 0;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(recovered.verdicts(t), daemon.verdicts(t)) << "tenant " << t;
    verdicts += daemon.verdicts(t).size();
  }
  EXPECT_GT(verdicts, 0u);
  EXPECT_EQ(recovered.stats().frames_quarantined, 0u);
}

// A journal failure is a crash point: pump() rethrows it, the failing
// shard applies none of that pump's frames, and a daemon recovered from the
// journal agrees with everything that was applied.
TEST(ServiceDaemonTest, JournalFailureAppliesNothingAndRethrows) {
  SimStorage storage;
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 1;  // both tenants' frames go through one shard task
  options.journal = &storage;
  MonitorDaemon daemon(options, pool);

  TenantFrameEncoder encoder;
  TenantWorkload workload = faulty_workload();
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;
  for (std::uint64_t t = 0; t < 2; ++t) {
    workload.seed = 60 + t;
    frames.push_back(encode_frames(encoder, t, generate_tenant_script(workload)));
    ASSERT_GE(frames.back().size(), 50u);
  }
  const auto submit_round = [&](std::size_t first, std::size_t count) {
    for (std::uint64_t t = 0; t < 2; ++t) {
      for (std::size_t i = first; i < first + count; ++i) {
        ASSERT_TRUE(daemon.submit(frames[t][i]).accepted);
      }
    }
  };
  submit_round(0, 40);
  daemon.pump();
  const DaemonStats before = daemon.stats();
  ASSERT_EQ(before.frames_applied, 80u);

  // Tenant 0's run is appended, tenant 1's append crashes the storage.
  submit_round(40, 10);
  storage.crash_after_ops(2);
  EXPECT_THROW(daemon.pump(), StorageCrash);
  EXPECT_EQ(daemon.stats().frames_applied, before.frames_applied);
  daemon.pump();  // the failed pump consumed its frames
  EXPECT_EQ(daemon.stats().frames_applied, before.frames_applied);

  MonitorDaemon recovered(options, pool);
  recovered.recover();
  EXPECT_EQ(recovered.stats().frames_applied, before.frames_applied);
  for (std::uint64_t t = 0; t < 2; ++t) {
    EXPECT_EQ(recovered.verdicts(t), daemon.verdicts(t)) << "tenant " << t;
  }
}

// A crash on a pump's sync leaves a torn tail behind the tenant's last
// clean frame. recover() must cut it off: the frames resubmitted and pumped
// after the recovery are acknowledged, so a second restart must replay
// them instead of stopping at the garbage in front of them.
TEST(ServiceDaemonTest, RecoveryCutsATornTailBeforeLaterFrames) {
  TenantFrameEncoder encoder;
  const std::vector<std::vector<std::uint8_t>> frames =
      encode_frames(encoder, 0, generate_tenant_script(faulty_workload()));
  ThreadPool pool(1);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(seed);
    SimFaultConfig faults;
    faults.torn_tail = 1;
    faults.seed = seed;
    SimStorage storage(faults);
    DaemonOptions options;
    options.shards = 1;
    options.journal = &storage;
    auto daemon = std::make_unique<MonitorDaemon>(options, pool);
    // Each pump is one append and one sync: op 2k is the k-th pump's sync.
    storage.crash_after_ops(2 * (2 + seed % 16));
    bool crashed = false;
    std::size_t acked = 0;  // frames a returned pump applied
    while (acked < frames.size()) {
      const std::size_t end = std::min(frames.size(), acked + 8);
      for (std::size_t i = acked; i < end; ++i) {
        ASSERT_TRUE(daemon->submit(frames[i]).accepted);
      }
      try {
        daemon->pump();
        acked = end;
      } catch (const StorageCrash&) {
        ASSERT_FALSE(crashed);
        crashed = true;
        daemon = std::make_unique<MonitorDaemon>(options, pool);
        daemon->recover();
      }
    }
    ASSERT_TRUE(crashed);
    ASSERT_FALSE(daemon->verdicts(0).empty());

    storage.crash();
    MonitorDaemon restarted(options, pool);
    restarted.recover();
    EXPECT_EQ(restarted.verdicts(0), daemon->verdicts(0));
    EXPECT_EQ(restarted.stats().frames_applied,
              daemon->stats().frames_applied);
  }
}

/// A StorageBackend over a SimStorage that records every append (object
/// and byte count) and sync in call order; an append to `fail_object`
/// throws StorageCrash instead.
class RecordingStorage final : public StorageBackend {
 public:
  struct Op {
    bool sync = false;
    std::string object;
    std::size_t bytes = 0;  // appends only
    friend bool operator==(const Op&, const Op&) = default;
    friend std::ostream& operator<<(std::ostream& os, const Op& op) {
      return op.sync ? os << "sync " << op.object
                     : os << "append " << op.object << " " << op.bytes;
    }
  };

  std::vector<std::string> list() const override { return inner_.list(); }
  bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }
  void append(const std::string& name,
              std::span<const std::uint8_t> bytes) override {
    if (name == fail_object) throw StorageCrash("append to " + name);
    ops.push_back({false, name, bytes.size()});
    inner_.append(name, bytes);
  }
  std::vector<std::uint8_t> read(const std::string& name) const override {
    return inner_.read(name);
  }
  std::size_t size(const std::string& name) const override {
    return inner_.size(name);
  }
  void sync(const std::string& name) override {
    ops.push_back({true, name, 0});
    inner_.sync(name);
  }
  void truncate(const std::string& name, std::size_t new_size) override {
    inner_.truncate(name, new_size);
  }
  void remove(const std::string& name) override { inner_.remove(name); }

  std::vector<Op> ops;
  std::string fail_object;

 private:
  SimStorage inner_;
};

// A journal failure stays in its shard, even when one pool thread drains
// every shard: the failing shard applies and compacts nothing, the other
// journals, applies and compacts as usual, and pump() rethrows after the
// join.
TEST(ServiceDaemonTest, JournalFailureStaysInItsShard) {
  RecordingStorage storage;
  ThreadPool pool(1);
  DaemonOptions options;
  options.shards = 2;
  options.memory_budget_events = 2;
  options.journal = &storage;
  MonitorDaemon daemon(options, pool);

  TenantFrameEncoder encoder;
  TenantWorkload workload = faulty_workload();
  std::vector<TenantScript> scripts;
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;
  for (std::uint64_t t = 0; t < 2; ++t) {
    workload.seed = 80 + t;
    scripts.push_back(generate_tenant_script(workload));
    frames.push_back(encode_frames(encoder, t, scripts.back()));
    ASSERT_GE(frames.back().size(), 50u);
  }
  const auto submit = [&](std::uint64_t t, std::size_t first,
                          std::size_t end) {
    for (std::size_t i = first; i < end; ++i) {
      ASSERT_TRUE(daemon.submit(frames[t][i]).accepted);
    }
  };
  submit(0, 0, 40);
  submit(1, 0, 40);
  daemon.pump();
  const DaemonStats before = daemon.stats();
  const std::size_t live_0 = daemon.session(0)->system().live_log_events();

  submit(0, 40, 50);
  submit(1, 40, 50);
  storage.fail_object = "tenant-0";
  EXPECT_THROW(daemon.pump(), StorageCrash);
  const DaemonStats after = daemon.stats();
  EXPECT_EQ(after.frames_applied, before.frames_applied + 10);
  EXPECT_GT(after.compactions, before.compactions);
  EXPECT_EQ(daemon.session(0)->system().live_log_events(), live_0);

  storage.fail_object.clear();
  submit(1, 50, frames[1].size());
  daemon.pump();
  EXPECT_EQ(daemon.verdicts(1), scripts[1].reference_verdicts);
}

// The journal's exact op list over a multi-pump run, on a one-thread pool
// (shards journal in shard order): per shard, one append per maximal run of
// one tenant's consecutive CRC-clean frames, in arena order, with the run's
// byte count, then one sync per tenant with a clean frame, in ascending
// tenant id. The runs interleave tenants, a tenant sits out odd pumps, a
// corrupt frame splits a run, and tenant 5 sends an op without a hello.
TEST(ServiceDaemonTest, JournalOpsAreRunAppendsThenAscendingSyncs) {
  RecordingStorage storage;
  ThreadPool pool(1);
  DaemonOptions options;
  options.shards = 2;  // tenants 0, 2 and 4 on shard 0; 1, 3 and 5 on 1
  options.journal = &storage;
  MonitorDaemon daemon(options, pool);

  constexpr std::uint64_t kTenants = 6;
  TenantFrameEncoder encoder;
  TenantWorkload workload = faulty_workload();
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    workload.seed = 70 + t;
    frames.push_back(encode_frames(encoder, t, generate_tenant_script(workload)));
    ASSERT_GE(frames.back().size(), 31u);
  }
  frames[5].erase(frames[5].begin());  // tenant 5's hello is never sent

  using Op = RecordingStorage::Op;
  std::vector<Op> expected;
  std::vector<std::size_t> cursor(kTenants, 0);
  for (std::size_t pump = 0; pump < 6; ++pump) {
    // Per shard, the frames queued this pump: (tenant, bytes, CRC-clean).
    struct Queued {
      std::uint64_t tenant;
      std::size_t bytes;
      bool clean;
    };
    std::vector<std::vector<Queued>> queued(options.shards);
    const auto submit = [&](std::uint64_t t, std::size_t count) {
      for (std::size_t k = 0; k < count; ++k) {
        const std::vector<std::uint8_t>& frame = frames[t][cursor[t]++];
        ASSERT_TRUE(daemon.submit(frame).accepted);
        queued[t % options.shards].push_back({t, frame.size(), true});
      }
    };
    submit(2, 3);
    submit(0, 2);
    if (pump == 2) {
      // A body byte flipped: routed by its intact envelope, refused by the
      // CRC, and tenant 0's run splits around it.
      std::vector<std::uint8_t> damaged = frames[0][cursor[0]];
      damaged[damaged.size() / 2] ^= 0x40;
      ASSERT_TRUE(daemon.submit(damaged).accepted);
      queued[0].push_back({0, damaged.size(), false});
      submit(0, 1);
    }
    submit(1, 4);
    if (pump % 2 == 0) submit(3, 2);
    submit(2, 1);
    submit(0, 3);
    submit(4, 2);
    submit(1, 1);
    if (pump == 3) submit(5, 1);
    daemon.pump();

    for (const std::vector<Queued>& shard : queued) {
      std::vector<std::uint64_t> synced;
      bool extends = false;  // the previous frame was clean, same tenant
      for (std::size_t i = 0; i < shard.size(); ++i) {
        const Queued& frame = shard[i];
        if (!frame.clean) {
          extends = false;
          continue;
        }
        const std::string object = "tenant-" + std::to_string(frame.tenant);
        if (extends && shard[i - 1].tenant == frame.tenant) {
          expected.back().bytes += frame.bytes;
        } else {
          expected.push_back({false, object, frame.bytes});
        }
        extends = true;
        synced.push_back(frame.tenant);
      }
      std::sort(synced.begin(), synced.end());
      synced.erase(std::unique(synced.begin(), synced.end()), synced.end());
      for (const std::uint64_t t : synced) {
        expected.push_back({true, "tenant-" + std::to_string(t), 0});
      }
    }
  }

  EXPECT_EQ(storage.ops, expected);
  EXPECT_EQ(expected.size(), 72u);
  // The damaged copy (its intact original followed it) and tenant 5's op.
  EXPECT_EQ(daemon.stats().frames_quarantined, 2u);
}

TEST(ServiceDaemonTest, PublishMetricsExportsAggregateGauges) {
  ThreadPool pool(2);
  DaemonOptions options;
  options.shards = 2;
  MonitorDaemon daemon(options, pool);

  ServiceLoadConfig config;
  config.tenants = 3;
  config.window = 3;
  config.workload = faulty_workload();
  const ServiceLoadResult result = run_service_load(config, daemon);
  ASSERT_TRUE(result.identity_ok);
  daemon.publish_metrics();

  const auto snapshot = obs::MetricRegistry::global().snapshot();
  const auto* tenants = snapshot.find("syncon_service_tenants");
  ASSERT_NE(tenants, nullptr);
  EXPECT_EQ(tenants->gauge_value, 3);
  const auto* applied = snapshot.find("syncon_service_frames_applied");
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(applied->gauge_value),
            result.daemon.frames_applied);
  EXPECT_NE(snapshot.find("syncon_service_tenant_live_log{tenant=\"0\"}"),
            nullptr);
}

/// Names of the labeled per-tenant series in the global registry.
std::vector<std::string> tenant_series() {
  std::vector<std::string> names;
  for (const auto& entry : obs::MetricRegistry::global().snapshot().entries) {
    if (entry.name.find("{tenant=") != std::string::npos) {
      names.push_back(entry.name);
    }
  }
  return names;
}

// Per-tenant gauges cover at most kMetricTenants hosted tenants, and
// release() drops a tenant's series: a run that releases its tenants
// leaves none behind, one that keeps them leaves exactly 3 per published
// tenant. Earlier tests' daemons dropped theirs when they were destroyed,
// so the count starts at zero.
TEST(ServiceDaemonTest, PerTenantSeriesStayBoundedAndLeaveAtRelease) {
  for (const bool release : {true, false}) {
    ThreadPool pool(2);
    DaemonOptions options;
    options.shards = 4;
    MonitorDaemon daemon(options, pool);

    ServiceLoadConfig config;
    config.tenants = service::kMetricTenants + 8;
    config.window = 16;
    config.release_finished = release;
    config.on_round = [&daemon](std::uint64_t) {
      daemon.publish_metrics();
      EXPECT_LE(tenant_series().size(), 3 * service::kMetricTenants);
    };
    const ServiceLoadResult result = run_service_load(config, daemon);
    ASSERT_TRUE(result.identity_ok);
    daemon.publish_metrics();
    EXPECT_EQ(tenant_series().size(),
              release ? 0 : 3 * service::kMetricTenants)
        << (release ? "with" : "without") << " release";
  }
  // The daemon that kept its sessions dropped their series when destroyed.
  EXPECT_TRUE(tenant_series().empty());
}

}  // namespace
}  // namespace syncon
