// Round-trip and framing tests for the link codec (online/wire_codec.hpp):
// chained delta frames on a FIFO link, the periodic absolute escape, resync
// behavior, rejection of malformed frames without state damage, and the
// size win over dense serialization that is the codec's reason to exist.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "online/online_system.hpp"
#include "online/wire_codec.hpp"
#include "support/varint.hpp"

namespace syncon {
namespace {

// A plausible FIFO stream: the sender's clock advances its own component
// every message and occasionally absorbs someone else's progress.
std::vector<WireMessage> sender_stream(std::size_t procs, int count,
                                       unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> comp(0, procs - 1);
  std::uniform_int_distribution<ClockValue> bump(1, 3);
  std::vector<WireMessage> out;
  VectorClock clock(procs, 1);
  for (int i = 0; i < count; ++i) {
    clock.tick(0);
    if (i % 3 == 1) clock.set(comp(rng), clock.at(comp(rng)) + bump(rng));
    out.push_back(WireMessage{{0, static_cast<EventIndex>(i + 1)}, clock});
  }
  return out;
}

// Decodes one frame that must parse.
WireMessage decode_ok(LinkDecoder& dec, std::span<const std::uint8_t>& in) {
  WireMessage out;
  EXPECT_TRUE(dec.try_decode(in, out));
  return out;
}

TEST(WireCodecTest, RoundTripsAFifoStream) {
  const auto stream = sender_stream(16, 50, 31);
  LinkEncoder enc(16, 8);
  LinkDecoder dec(16);
  std::vector<std::uint8_t> bytes;
  for (const WireMessage& m : stream) enc.encode(m, bytes);

  std::span<const std::uint8_t> in(bytes);
  for (const WireMessage& m : stream) {
    const WireMessage got = decode_ok(dec, in);
    EXPECT_EQ(got.source, m.source);
    EXPECT_EQ(got.clock, m.clock);
  }
  EXPECT_TRUE(in.empty());
  EXPECT_TRUE(dec.synced());
}

TEST(WireCodecTest, DeltaFramesAreSmallerThanDenseSerialization) {
  const std::size_t procs = 256;
  const auto stream = sender_stream(procs, 64, 37);
  LinkEncoder enc(procs, 16);
  std::vector<std::uint8_t> delta_bytes;
  std::size_t max_delta_frame = 0;
  for (const WireMessage& m : stream) {
    const std::size_t n = enc.encode(m, delta_bytes);
    if (delta_bytes.back() != 0) {  // crude: count only non-first frames
      max_delta_frame = std::max(max_delta_frame, n);
    }
  }
  std::vector<std::uint8_t> dense_bytes;
  for (const WireMessage& m : stream) m.clock.encode(dense_bytes);
  // The chained encoding must beat even the varint-compressed dense form,
  // and individual delta frames must be far below |P| bytes.
  EXPECT_LT(delta_bytes.size(), dense_bytes.size() / 4);
  EXPECT_LT(max_delta_frame, procs / 4);
}

TEST(WireCodecTest, FullIntervalOneIsSelfSynchronizing) {
  const auto stream = sender_stream(8, 10, 41);
  LinkEncoder enc(8, 1);  // every frame absolute
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> starts;
  for (const WireMessage& m : stream) {
    starts.push_back(bytes.size());
    enc.encode(m, bytes);
  }
  // A decoder may join at ANY frame boundary.
  for (std::size_t k = 0; k < stream.size(); ++k) {
    LinkDecoder dec(8);
    std::span<const std::uint8_t> in(bytes);
    in = in.subspan(starts[k]);
    const WireMessage got = decode_ok(dec, in);
    EXPECT_EQ(got.clock, stream[k].clock);
  }
}

TEST(WireCodecTest, UnsyncedDeltaFrameIsRejectedUntilNextFullFrame) {
  const auto stream = sender_stream(8, 6, 43);
  LinkEncoder enc(8, 100);  // only the first frame is absolute
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> starts;
  for (const WireMessage& m : stream) {
    starts.push_back(bytes.size());
    enc.encode(m, bytes);
  }
  LinkDecoder dec(8);
  std::span<const std::uint8_t> in(bytes);
  in = in.subspan(starts[2]);  // join mid-stream: delta frame
  WireMessage out;
  EXPECT_FALSE(dec.try_decode(in, out));
  EXPECT_EQ(in.size(), bytes.size() - starts[2]);
  EXPECT_FALSE(dec.synced());
}

TEST(WireCodecTest, EncoderResetForcesAbsoluteFrameForRejoiningReceiver) {
  const auto stream = sender_stream(8, 8, 47);
  LinkEncoder enc(8, 100);
  LinkDecoder dec(8);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 4; ++i) enc.encode(stream[static_cast<std::size_t>(i)], bytes);

  // Receiver restarts (e.g. after the resync path replayed history): it
  // asks the sender to reset, which makes the next frame absolute.
  enc.reset();
  std::vector<std::uint8_t> tail;
  for (std::size_t i = 4; i < stream.size(); ++i) enc.encode(stream[i], tail);
  std::span<const std::uint8_t> in(tail);
  for (std::size_t i = 4; i < stream.size(); ++i) {
    const WireMessage got = decode_ok(dec, in);
    EXPECT_EQ(got.source, stream[i].source);
    EXPECT_EQ(got.clock, stream[i].clock);
  }
}

TEST(WireCodecTest, RelativeEncodingRoundTripsRandomPairs) {
  std::mt19937 rng(53);
  std::uniform_int_distribution<ClockValue> dist(0, 40);
  for (int round = 0; round < 100; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 17);
    VectorClock base(size, 0);
    VectorClock next(size, 0);
    for (std::size_t i = 0; i < size; ++i) {
      base.set(i, dist(rng));
      // Mostly unchanged components, occasionally moved in either
      // direction — deltas may be negative (resync can regress a link).
      next.set(i, round % 4 == 0 ? dist(rng) : base.at(i));
    }
    std::vector<std::uint8_t> bytes;
    encode_relative(next, base, bytes);
    std::span<const std::uint8_t> in(bytes);
    VectorClock decoded = base;
    decode_relative(in, decoded);
    EXPECT_EQ(decoded, next);
    EXPECT_TRUE(in.empty());
  }
}

// Frames whose counts, gaps or deltas would size a buffer, wrap an index
// or overflow a component are garbage like any other, and so are a delta
// frame that fails only after a valid first change and a source too wide
// for its 32-bit fields: each is rejected without consuming input or
// touching the link, whose next real delta frame still decodes to its
// exact clock.
TEST(WireCodecTest, MalformedFramesAreRejectedWithoutStateDamage) {
  const auto stream = sender_stream(4, 2, 61);
  LinkEncoder enc(4, 100);  // frame 0 absolute, frame 1 a delta
  std::vector<std::uint8_t> first, second;
  enc.encode(stream[0], first);
  enc.encode(stream[1], second);
  ASSERT_EQ(second.front(), 1);
  LinkDecoder dec(4);
  // One reused output for every frame, as a service shard decodes: a frame
  // rejected halfway may leave it half-written, but never the codec state.
  WireMessage out;
  std::span<const std::uint8_t> first_in(first);
  ASSERT_TRUE(dec.try_decode(first_in, out));

  std::vector<std::vector<std::uint8_t>> malformed(5);
  // Full frame (tag 0, source (0, 1)) claiming 2^62 components.
  malformed[0] = {0, 0, 1};
  encode_varint(std::uint64_t{1} << 62, malformed[0]);
  malformed[0].insert(malformed[0].end(), {2, 2, 2, 2});
  // Full frame of 4 components whose second delta is INT64_MAX.
  malformed[1] = {0, 0, 1, 4, 2};
  encode_signed_varint(std::numeric_limits<std::int64_t>::max(), malformed[1]);
  malformed[1].insert(malformed[1].end(), {0, 0});
  // Delta frame (tag 1, source (0, 2)), two changes: index 0 += 5, then a
  // gap of 100 past the 4-component clock.
  malformed[2] = {1, 0, 2, 2, 0};
  encode_signed_varint(5, malformed[2]);
  encode_varint(100, malformed[2]);
  encode_signed_varint(1, malformed[2]);
  // Delta frame whose second gap wraps index 3 around to index 2.
  malformed[3] = {1, 0, 2, 2, 3, 2};
  encode_varint(~std::uint64_t{0}, malformed[3]);
  encode_signed_varint(1, malformed[3]);
  // Full frame from process 2^32 + 1, index 2^32 + 3, clock [1 4 1 1]: cast
  // to 32 bits it would read as a well-formed report of event (1, 3).
  malformed[4] = {0};
  encode_varint((std::uint64_t{1} << 32) + 1, malformed[4]);
  encode_varint((std::uint64_t{1} << 32) + 3, malformed[4]);
  VectorClock({1, 4, 1, 1}).encode(malformed[4]);
  for (const std::vector<std::uint8_t>& frame : malformed) {
    std::span<const std::uint8_t> in(frame);
    EXPECT_FALSE(dec.try_decode(in, out));
    EXPECT_EQ(in.size(), frame.size());
    EXPECT_TRUE(dec.synced());
  }

  // The delta applies to the link's previous clock, not to whatever the
  // rejected frames left in `out`.
  std::span<const std::uint8_t> second_in(second);
  ASSERT_TRUE(dec.try_decode(second_in, out));
  EXPECT_EQ(out.source, stream[1].source);
  EXPECT_EQ(out.clock, stream[1].clock);
  EXPECT_TRUE(second_in.empty());
}

TEST(WireCodecTest, CodecIntegratesWithOnlineSystemWire) {
  // End-to-end: clocks produced by the live protocol survive the codec.
  // Two sends chained on one link make the second frame a delta frame.
  OnlineSystem sys(3);
  LinkEncoder enc0(3, 4);
  LinkDecoder dec0(3);
  std::vector<std::uint8_t> bytes;

  const auto m1 = sys.send(0);
  enc0.encode(m1, bytes);
  std::span<const std::uint8_t> in1(bytes);
  const WireMessage got1 = decode_ok(dec0, in1);
  EXPECT_EQ(got1.clock, m1.clock);
  sys.deliver(2, got1);

  bytes.clear();
  LinkEncoder enc1(3, 4);
  LinkDecoder dec1(3);
  const auto m2 = sys.send(1);
  const auto m3 = sys.send(1);
  enc1.encode(m2, bytes);
  enc1.encode(m3, bytes);
  std::span<const std::uint8_t> in2(bytes);
  const WireMessage got2 = decode_ok(dec1, in2);
  const WireMessage got3 = decode_ok(dec1, in2);
  EXPECT_TRUE(in2.empty());
  EXPECT_EQ(got2.clock, m2.clock);
  EXPECT_EQ(got3.clock, m3.clock);
  sys.deliver(2, got2);
  sys.deliver(2, got3);
  EXPECT_FALSE(sys.has_gap(2));
}

}  // namespace
}  // namespace syncon
