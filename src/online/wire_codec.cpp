#include "online/wire_codec.hpp"

#include <limits>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "support/contracts.hpp"
#include "support/varint.hpp"

namespace syncon {

namespace {
constexpr std::uint8_t kFull = 0;
constexpr std::uint8_t kDelta = 1;
}  // namespace

void encode_relative(const VectorClock& clock, const VectorClock& base,
                     std::vector<std::uint8_t>& out) {
  SYNCON_REQUIRE(clock.size() == base.size(),
                 "relative encoding requires a base of the same size");
  const std::span<const ClockValue> now = clock.values();
  const std::span<const ClockValue> was = base.values();
  std::uint64_t changed = 0;
  for (std::size_t i = 0; i < now.size(); ++i) {
    if (now[i] != was[i]) ++changed;
  }
  encode_varint(changed, out);
  std::uint64_t prev_index = 0;
  for (std::size_t i = 0; i < now.size(); ++i) {
    if (now[i] == was[i]) continue;
    encode_varint(static_cast<std::uint64_t>(i) - prev_index, out);
    encode_signed_varint(
        static_cast<std::int64_t>(now[i]) - static_cast<std::int64_t>(was[i]),
        out);
    prev_index = static_cast<std::uint64_t>(i);
  }
}

void decode_relative(std::span<const std::uint8_t>& in, VectorClock& clock) {
  const std::uint64_t changed = decode_varint(in);
  SYNCON_REQUIRE(changed <= clock.size(),
                 "relative clock encoding lists more changes than components");
  constexpr std::int64_t kMax = std::numeric_limits<ClockValue>::max();
  std::size_t index = 0;
  for (std::uint64_t k = 0; k < changed; ++k) {
    // Range-check the gap and the delta themselves, so neither sum can
    // wrap or overflow.
    const std::uint64_t gap = decode_varint(in);
    SYNCON_REQUIRE(gap < clock.size() - index,
                   "relative clock encoding indexes past the clock size");
    index += static_cast<std::size_t>(gap);
    const std::int64_t was = clock.at(index);
    const std::int64_t delta = decode_signed_varint(in);
    SYNCON_REQUIRE(delta >= -was && delta <= kMax - was,
                   "decoded clock component out of range");
    clock.set(index, static_cast<ClockValue>(was + delta));
  }
}

LinkEncoder::LinkEncoder(std::size_t process_count,
                         std::uint32_t full_interval)
    : last_(process_count, 0), full_interval_(full_interval) {
  SYNCON_REQUIRE(full_interval >= 1, "full_interval must be at least 1");
  since_full_ = full_interval;  // first frame is always absolute
}

std::size_t LinkEncoder::encode(const WireMessage& message,
                                std::vector<std::uint8_t>& out) {
  SYNCON_REQUIRE(message.clock.size() == last_.size(),
                 "wire clock size does not match the link's process count");
  const std::size_t start = out.size();
  const bool full = since_full_ >= full_interval_;
  out.push_back(full ? kFull : kDelta);
  encode_varint(message.source.process, out);
  encode_varint(message.source.index, out);
  if (full) {
    message.clock.encode(out);
    since_full_ = 1;
  } else {
    encode_relative(message.clock, last_, out);
    ++since_full_;
  }
  last_ = message.clock;
  const std::size_t frame_bytes = out.size() - start;
  if (obs::enabled()) {
    static obs::Histogram& bytes_per_message = obs::MetricRegistry::global()
        .histogram("syncon_wire_bytes_per_message",
                   obs::HistogramSpec::exponential(1.0, 65536.0));
    static obs::Counter& frames =
        obs::MetricRegistry::global().counter("syncon_wire_frames_total");
    static obs::Counter& absolute_escapes = obs::MetricRegistry::global()
        .counter("syncon_wire_absolute_escapes_total");
    static obs::Counter& bytes =
        obs::MetricRegistry::global().counter("syncon_wire_bytes_total");
    bytes_per_message.record(static_cast<double>(frame_bytes));
    frames.add();
    if (full) absolute_escapes.add();
    bytes.add(frame_bytes);
  }
  return frame_bytes;
}

LinkDecoder::LinkDecoder(std::size_t process_count)
    : last_(process_count, 0) {}

void LinkDecoder::read(std::span<const std::uint8_t>& in, WireMessage& out) {
  SYNCON_REQUIRE(!in.empty(), "decoding an empty wire frame");
  const std::uint8_t tag = in.front();
  in = in.subspan(1);
  out.source.process = decode_varint_as<ProcessId>(in);
  out.source.index = decode_varint_as<EventIndex>(in);
  if (tag == kFull) {
    out.clock.decode_from(in);
    SYNCON_REQUIRE(out.clock.size() == last_.size(),
                   "wire clock size does not match the link's process count");
  } else {
    SYNCON_REQUIRE(tag == kDelta, "unknown wire frame tag");
    SYNCON_REQUIRE(synced_,
                   "delta frame before any full frame on this link — "
                   "request a resync or wait for the next full frame");
    out.clock = last_;  // reuses out's storage
    decode_relative(in, out.clock);
  }
  // Every check has passed: only now does the frame touch codec state.
  last_ = out.clock;
  synced_ = true;
}

bool LinkDecoder::try_decode(std::span<const std::uint8_t>& in,
                             WireMessage& out) {
  // read() mutates last_/synced_ only after its final contract check
  // passes, so catching the violation on a probe cursor leaves both the
  // input span and the codec state exactly as they were.
  std::span<const std::uint8_t> probe = in;
  try {
    read(probe, out);
  } catch (const ContractViolation&) {
    if (obs::enabled()) {
      static obs::Counter& rejected = obs::MetricRegistry::global().counter(
          "syncon_wire_rejected_frames_total");
      rejected.add();
    }
    return false;
  }
  in = probe;
  return true;
}

}  // namespace syncon
