// Tenant wire codec conformance (DESIGN.md §3.15): scripted tenant traffic
// must survive the frame round-trip bit-for-bit, and every way a frame can
// be damaged — truncation, bit flips, cross-position splices — must end in
// quarantine: never an abort, never corruption of another frame's decode.
#include "service/tenant_codec.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "relations/evaluator.hpp"
#include "sim/soak.hpp"
#include "support/varint.hpp"

namespace syncon {
namespace {

using service::FrameKind;
using service::FrameView;
using service::PeekStatus;
using service::TenantFrameEncoder;
using service::TenantStreamDecoder;

TenantWorkload faulty_workload(std::uint64_t seed) {
  TenantWorkload workload;
  workload.report_link.drop_probability = 0.15;
  workload.report_link.duplicate_probability = 0.1;
  workload.report_link.reorder_probability = 0.2;
  workload.report_link.min_delay = 1;
  workload.report_link.max_delay = 24;
  workload.seed = seed;
  return workload;
}

/// A tenant of one of bench_e2e's two service workloads (`service_small`:
/// 3 processes, 18 cycles, clean; `service_durable`: 16 processes, 40
/// cycles, lossy reports), seeded as that benchmark seeds tenant `tenant`
/// of a run at `run_seed`.
TenantWorkload service_workload(bool durable, std::uint64_t run_seed,
                                std::size_t tenant) {
  TenantWorkload workload;
  workload.processes = durable ? 16 : 3;
  workload.cycles = durable ? 40 : 18;
  if (durable) {
    workload.report_link.drop_probability = 0.15;
    workload.report_link.duplicate_probability = 0.10;
    workload.report_link.reorder_probability = 0.20;
    workload.report_link.min_delay = 1;
    workload.report_link.max_delay = 24;
  }
  workload.seed = run_seed ^ (0x9e3779b97f4a7c15ull * (tenant + 1));
  return workload;
}

/// Encodes a script as one frame per vector: hello first, then one per op.
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

TEST(ServiceCodecTest, RoundTripReproducesOpsAndVerdicts) {
  const TenantScript script = generate_tenant_script(faulty_workload(11));
  EXPECT_GT(script.executed_events, 0u);
  EXPECT_FALSE(script.reference_verdicts.empty());
  TenantFrameEncoder encoder;
  const auto frames = encode_frames(encoder, 42, script);

  TenantStreamDecoder decoder(script.processes, 0);  // hello is seq 0
  TenantSessionCore core(script.processes, script.resync_chunk);
  std::size_t op_index = 0;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    FrameView view;
    ASSERT_EQ(service::peek_frame(frames[i], view), PeekStatus::kOk);
    EXPECT_EQ(view.tenant, 42u);
    TenantOp op;
    ASSERT_TRUE(decoder.decode(view, op)) << "frame " << i;
    EXPECT_EQ(op, script.ops[op_index]) << "op " << op_index;
    core.apply(op);
    ++op_index;
  }
  EXPECT_EQ(op_index, script.ops.size());
  EXPECT_EQ(core.definite_verdicts(), script.reference_verdicts);
  EXPECT_EQ(core.quarantined(), 0u);
}

TEST(ServiceCodecTest, RoundTripPropertyOverSeeds) {
  // Property-style sweep: different seeds shuffle the fault schedule and
  // with it the op mix (report order, resync contents); every stream must
  // reproduce its ops exactly.
  for (const std::uint64_t seed : {1u, 2u, 3u, 19u, 23u}) {
    const TenantScript script = generate_tenant_script(faulty_workload(seed));
    TenantFrameEncoder encoder;
    const auto frames = encode_frames(encoder, seed, script);
    TenantStreamDecoder decoder(script.processes, 0);
    for (std::size_t i = 1; i < frames.size(); ++i) {
      FrameView view;
      ASSERT_EQ(service::peek_frame(frames[i], view), PeekStatus::kOk);
      TenantOp op;
      ASSERT_TRUE(decoder.decode(view, op)) << "seed " << seed;
      ASSERT_EQ(op, script.ops[i - 1]) << "seed " << seed << " op " << i - 1;
    }
  }
}

TEST(ServiceCodecTest, CleanDeltaFramesDecodeIntoAReusedOpWithoutAllocating) {
  // The daemon decodes every frame of a shard into one TenantOp. Once the
  // op has held a clock, a source and a label, a clean delta kEvent or
  // kReport frame must reuse that storage: reset in place, the link
  // decoder's clock written over the op's.
  TenantWorkload workload;
  workload.cycles = 160;
  const TenantScript script = generate_tenant_script(workload);
  TenantFrameEncoder encoder;
  const auto frames = encode_frames(encoder, 5, script);

  TenantStreamDecoder decoder(script.processes, 0);
  TenantOp op;
  constexpr std::size_t kWarmUp = 64;
  std::size_t counted = 0;
  std::uint64_t allocations = 0;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    FrameView view;
    ASSERT_EQ(service::peek_frame(frames[i], view), PeekStatus::kOk);
    const bool delta = (view.kind == FrameKind::kEvent ||
                        view.kind == FrameKind::kReport) &&
                       view.body.front() == 1;  // the link codec's kDelta
    const std::uint64_t before = g_allocations.load();
    ASSERT_TRUE(decoder.decode(view, op)) << "frame " << i;
    if (delta && i > kWarmUp) {
      allocations += g_allocations.load() - before;
      ++counted;
    }
    ASSERT_EQ(op, script.ops[i - 1]) << "op " << i - 1;
  }
  EXPECT_GE(counted, 1000u);
  EXPECT_EQ(allocations, 0u);
}

TEST(ServiceCodecTest, CompactAtPinDoesNotAllocateOnceWarm) {
  // A budgeted daemon's shard tasks compact their sessions after applying
  // their frames. After the first call the session keeps its pin clock:
  // the monitor writes its pin into it, and compaction only shrinks the
  // replica's columns and dedup lists.
  const TenantScript script =
      generate_tenant_script(service_workload(true, 1, 0));
  TenantSessionCore core(script.processes, script.resync_chunk);
  constexpr std::size_t kEvery = 16;
  std::size_t calls = 0, reclaimed = 0;
  std::uint64_t allocations = 0;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    core.apply(script.ops[i]);
    if (i % kEvery != kEvery - 1) continue;
    const std::uint64_t before = g_allocations.load();
    const std::size_t got = core.compact_at_pin();
    if (calls++ == 0) continue;  // warm-up: the pin clock is sized here
    allocations += g_allocations.load() - before;
    reclaimed += got;
  }
  EXPECT_EQ(core.definite_verdicts(), script.reference_verdicts);
  EXPECT_GE(calls, 100u);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(allocations, 0u);
}

TEST(ServiceCodecTest, TruncatedFramesAskForMoreBytes) {
  const TenantScript script = generate_tenant_script(TenantWorkload{});
  TenantFrameEncoder encoder;
  const auto frames = encode_frames(encoder, 1, script);
  const std::vector<std::uint8_t>& frame = frames[2];
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    FrameView view;
    const auto status = service::peek_frame(
        std::span<const std::uint8_t>(frame.data(), cut), view);
    EXPECT_EQ(status, PeekStatus::kNeedMore) << "cut at " << cut;
  }
}

TEST(ServiceCodecTest, EveryBitFlipIsDetected) {
  const TenantScript script = generate_tenant_script(TenantWorkload{});
  TenantFrameEncoder encoder;
  const auto frames = encode_frames(encoder, 1, script);
  const std::vector<std::uint8_t>& frame = frames[3];
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = frame;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FrameView view;
      const auto status = service::peek_frame(flipped, view);
      // A flipped length prefix may leave the scanner waiting for bytes
      // that never come; everything else must fail the CRC. A clean parse
      // of damaged bytes is the one unacceptable outcome.
      EXPECT_NE(status, PeekStatus::kOk) << "byte " << byte << " bit " << bit;
    }
  }
}

// A session is sized by its hello's process count, so the count is
// bounded: the cap decodes, one more is malformed.
TEST(ServiceCodecTest, HelloProcessCountIsBounded) {
  for (const std::size_t processes : {service::kMaxTenantProcesses,
                                      service::kMaxTenantProcesses + 1}) {
    TenantFrameEncoder encoder;
    std::vector<std::uint8_t> frame;
    encoder.encode_hello(3, processes, 8, frame);
    FrameView view;
    ASSERT_EQ(service::peek_frame(frame, view), PeekStatus::kOk);
    std::size_t decoded = 0, chunk = 0;
    const bool ok = service::decode_hello(view, decoded, chunk);
    EXPECT_EQ(ok, processes <= service::kMaxTenantProcesses) << processes;
    if (ok) {
      EXPECT_EQ(decoded, processes);
    }
  }
}

// An event source or checkpoint component too wide for its 32-bit field is
// a malformed body, never truncated into a different, valid value. The
// bodies are built by hand: the encoder cannot express such values.
TEST(ServiceCodecTest, OutOfRangeFieldsAreRejectedNotTruncated) {
  constexpr std::uint64_t kWrapsToOne = (std::uint64_t{1} << 32) + 1;
  const auto decodes = [](FrameKind kind, const std::vector<std::uint8_t>& body,
                          TenantOp& op) {
    TenantStreamDecoder decoder(2, 0);
    FrameView view;
    view.kind = kind;
    view.seq = 1;
    view.body = body;
    return decoder.decode(view, op);
  };
  // Event (1, 1), clock [2 2], received from source (process, index).
  const auto event_body = [](std::uint64_t process, std::uint64_t index) {
    std::vector<std::uint8_t> body = {0, 1, 1};  // full link frame
    VectorClock({2, 2}).encode(body);
    encode_varint(1, body);  // one source
    encode_varint(process, body);
    encode_varint(index, body);
    encode_signed_varint(-1, body);  // untimed
    encode_string("", body);
    return body;
  };
  TenantOp op;
  ASSERT_TRUE(decodes(FrameKind::kEvent, event_body(0, 1), op));
  EXPECT_EQ(op.sources, (std::vector<EventId>{{0, 1}}));
  EXPECT_FALSE(decodes(FrameKind::kEvent, event_body(kWrapsToOne, 1), op));
  EXPECT_FALSE(decodes(FrameKind::kEvent, event_body(0, kWrapsToOne), op));

  const auto checkpoint_body = [](std::uint64_t second) {
    std::vector<std::uint8_t> body;
    encode_varint(2, body);  // two components
    encode_varint(3, body);
    encode_varint(second, body);
    return body;
  };
  ASSERT_TRUE(decodes(FrameKind::kCheckpoint, checkpoint_body(1), op));
  EXPECT_EQ(op.message.clock, VectorClock({3, 1}));
  EXPECT_FALSE(
      decodes(FrameKind::kCheckpoint, checkpoint_body(kWrapsToOne), op));
}

TEST(ServiceCodecTest, ReplayedFrameIsQuarantinedWithoutStateDamage) {
  const TenantScript script = generate_tenant_script(faulty_workload(5));
  TenantFrameEncoder encoder;
  const auto frames = encode_frames(encoder, 9, script);

  TenantStreamDecoder decoder(script.processes, 0);
  TenantSessionCore core(script.processes, script.resync_chunk);
  std::uint64_t rejected = 0;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    FrameView view;
    ASSERT_EQ(service::peek_frame(frames[i], view), PeekStatus::kOk);
    TenantOp op;
    ASSERT_TRUE(decoder.decode(view, op));
    core.apply(op);
    // Replay every 7th frame immediately — a spliced-in duplicate. The
    // sequence guard must reject it before it can touch the delta codecs.
    if (i % 7 == 0) {
      FrameView replay;
      ASSERT_EQ(service::peek_frame(frames[i], replay), PeekStatus::kOk);
      TenantOp ignored;
      EXPECT_FALSE(decoder.decode(replay, ignored));
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  // The stream behind the splices decoded unharmed.
  EXPECT_EQ(core.definite_verdicts(), script.reference_verdicts);
  EXPECT_EQ(core.quarantined(), 0u);
}

TEST(ServiceCodecTest, CrossTenantSpliceCannotCrossStreams) {
  // Two tenants, frames spliced between their byte streams: routing is by
  // the payload's tenant tag, so a spliced frame lands at its *own*
  // tenant's decoder — out of sequence there, quarantined there, and the
  // victim stream never even sees it.
  const TenantScript script_a = generate_tenant_script(faulty_workload(31));
  const TenantScript script_b = generate_tenant_script(faulty_workload(37));
  TenantFrameEncoder encoder;
  const auto frames_a = encode_frames(encoder, 100, script_a);
  const auto frames_b = encode_frames(encoder, 101, script_b);

  TenantStreamDecoder decoder_a(script_a.processes, 0);
  TenantStreamDecoder decoder_b(script_b.processes, 0);
  TenantSessionCore core_a(script_a.processes, script_a.resync_chunk);
  TenantSessionCore core_b(script_b.processes, script_b.resync_chunk);

  const auto route = [&](const std::vector<std::uint8_t>& frame) -> bool {
    FrameView view;
    EXPECT_EQ(service::peek_frame(frame, view), PeekStatus::kOk);
    if (view.kind == FrameKind::kHello) return true;
    TenantOp op;
    if (view.tenant == 100) {
      if (!decoder_a.decode(view, op)) return false;
      core_a.apply(op);
    } else {
      if (!decoder_b.decode(view, op)) return false;
      core_b.apply(op);
    }
    return true;
  };

  std::uint64_t quarantined = 0;
  const std::size_t n = std::min(frames_a.size(), frames_b.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(route(frames_a[i]));
    // Splice: a mid-stream frame of A re-sent while B's stream is read.
    if (i > 4 && i % 5 == 0 && !route(frames_a[i - 3])) ++quarantined;
    EXPECT_TRUE(route(frames_b[i]));
  }
  for (std::size_t i = n; i < frames_a.size(); ++i) EXPECT_TRUE(route(frames_a[i]));
  for (std::size_t i = n; i < frames_b.size(); ++i) EXPECT_TRUE(route(frames_b[i]));

  EXPECT_GT(quarantined, 0u);
  EXPECT_EQ(core_a.definite_verdicts(), script_a.reference_verdicts);
  EXPECT_EQ(core_b.definite_verdicts(), script_b.reference_verdicts);
  EXPECT_EQ(core_a.quarantined(), 0u);
  EXPECT_EQ(core_b.quarantined(), 0u);
}

TEST(ServiceCodecTest, LostJournalEventLeavesTheSessionDegraded) {
  // A stream that lost one kEvent op: the replica cannot restore that
  // process's later events (each process's events restore in order), so a
  // checkpoint's resync cannot serve their lost reports. The session must
  // stop resyncing and finish with those gaps open — fewer Definite
  // verdicts, no hang.
  const TenantScript script = generate_tenant_script(faulty_workload(7));
  std::size_t lost = script.ops.size() / 2;
  while (script.ops[lost].kind != TenantOp::Kind::kEvent) ++lost;
  const ProcessId p = script.ops[lost].message.source.process;

  TenantSessionCore core(script.processes, script.resync_chunk);
  std::uint64_t later = 0;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    if (i == lost) continue;
    const TenantOp& op = script.ops[i];
    const std::uint64_t before = core.quarantined();
    core.apply(op);
    if (i > lost && op.kind == TenantOp::Kind::kEvent &&
        op.message.source.process == p) {
      EXPECT_EQ(core.quarantined(), before + 1) << "op " << i;
      ++later;
    }
  }
  EXPECT_GT(later, 0u);
  EXPECT_GT(core.monitor().missing_report_count(), 0u);
  EXPECT_LT(core.definite_verdicts().size(), script.reference_verdicts.size());
}

TEST(ServiceCodecTest, MalformedEventSourceIsQuarantinedWithoutStateDamage) {
  // The decoder does not range-check source processes, so a CRC-clean
  // kEvent frame can name process 7 of a 3-process tenant. The op must be
  // quarantined and leave the replica as it was.
  TenantSessionCore core(3);
  TenantOp op;
  op.kind = TenantOp::Kind::kEvent;
  op.message = {EventId{0, 1}, VectorClock({2, 1, 1})};
  op.sources = {EventId{1, 1}, EventId{7, 1}};
  core.apply(op);
  EXPECT_EQ(core.quarantined(), 1u);
  const OnlineSystem& replica = core.system();
  EXPECT_EQ(replica.executed(0), 0u);
  EXPECT_EQ(replica.live_log_events(), 0u);
  EXPECT_EQ(replica.current_clock(0), VectorClock({1, 0, 0}));
  EXPECT_FALSE(replica.already_delivered(0, EventId{1, 1}));

  op.sources = {EventId{1, 1}};
  core.apply(op);
  EXPECT_EQ(core.quarantined(), 1u);
  EXPECT_EQ(replica.executed(0), 1u);
  EXPECT_TRUE(replica.already_delivered(0, EventId{1, 1}));
}

// The service workloads generate their scripts in setup, so the generator
// is part of what the benchmark measures: a changed op, clock or reference
// verdict changes every wire and journal byte count pinned in CI. FNV-1a
// over the reference verdict logs and, separately, over the encoded frames
// of a few tenants of each workload pins it here too. A change of the frame
// format re-pins only the frame hash: the verdicts must not move.
TEST(ServiceCodecTest, GeneratedServiceScriptsKeepTheirPinnedBytes) {
  const auto fnv1a = [](std::uint64_t hash, const void* data,
                        std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ull;
    }
    return hash;
  };
  struct Pin {
    bool durable;
    std::uint64_t verdicts;
    std::uint64_t frames;
  };
  for (const Pin pin : {Pin{false, 0x682d82197471f62dull, 0x9e9474a0603eb39full},
                        Pin{true, 0xe6cc195a9323cd45ull, 0x263358d79a03570bull}}) {
    std::uint64_t verdicts = 0xcbf29ce484222325ull;
    std::uint64_t frames = 0xcbf29ce484222325ull;
    for (const std::uint64_t run_seed : {1u, 2u}) {
      for (std::size_t tenant = 0; tenant < 3; ++tenant) {
        const TenantScript script = generate_tenant_script(
            service_workload(pin.durable, run_seed, tenant));
        TenantFrameEncoder encoder;
        for (const auto& frame : encode_frames(encoder, tenant, script)) {
          frames = fnv1a(frames, frame.data(), frame.size());
        }
        for (const std::string& verdict : script.reference_verdicts) {
          verdicts = fnv1a(verdicts, verdict.c_str(), verdict.size() + 1);
        }
      }
    }
    const char* workload = pin.durable ? "service_durable" : "service_small";
    EXPECT_EQ(verdicts, pin.verdicts) << workload;
    EXPECT_EQ(frames, pin.frames) << workload;
  }
}

// The session's verdicts against the offline engine: replay each script,
// rebuild the execution from the uncompacted replica, gather each action's
// journaled events into its interval, and evaluate every Definite verdict
// with Theorem 20's probe and with direct quantification.
TEST(ServiceCodecTest, HostedVerdictsMatchTheOfflineEvaluator) {
  const RelationId r3{Relation::R3, ProxyKind::Begin, ProxyKind::End};
  std::size_t checked = 0;
  for (const bool durable : {false, true}) {
    for (const bool faulty : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        TenantWorkload workload = service_workload(durable, seed, 0);
        if (!faulty) workload.report_link = LinkFaultConfig{};
        const TenantScript script = generate_tenant_script(workload);
        TenantSessionCore core(script.processes, script.resync_chunk);
        std::map<std::string, std::vector<EventId>> events_of;
        for (const TenantOp& op : script.ops) {
          core.apply(op);
          if (op.kind == TenantOp::Kind::kEvent && !op.label.empty()) {
            events_of[op.label].push_back(op.message.source);
          }
        }
        ASSERT_EQ(core.definite_verdicts(), script.reference_verdicts);

        const Execution exec = core.system().to_execution();
        RelationEvaluator eval(exec);
        std::map<std::string, EventHandle> handle_of;
        for (const auto& [label, events] : events_of) {
          handle_of.emplace(label,
                            eval.add_event(NonatomicEvent(exec, events, label)));
        }
        for (const std::string& verdict : script.reference_verdicts) {
          const std::size_t bar = verdict.find('|');
          const std::size_t bar2 = verdict.find('|', bar + 1);
          const EventHandle x = handle_of.at(verdict.substr(0, bar));
          const EventHandle y =
              handle_of.at(verdict.substr(bar + 1, bar2 - bar - 1));
          const bool holds = verdict.substr(bar2 + 1) == "holds";
          EXPECT_EQ(eval.holds(r3, x, y), holds) << verdict;
          EXPECT_EQ(eval.holds_naive(r3, x, y), holds) << verdict;
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 300u);
}

}  // namespace
}  // namespace syncon
