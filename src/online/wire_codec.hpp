// Bounded-bytes serialization of the online protocol's wire messages
// (arXiv 1606.05962's compressed vector timestamps, DESIGN.md §3.11).
//
// A WireMessage piggybacks a full |P|-component clock — the protocol's only
// overhead, and the part that stops scaling when |P| grows. Between two
// consecutive messages on the same FIFO link the sender's clock changes in
// only a handful of components (its own, plus whatever causal fan-in it
// absorbed since), so the codec ships each clock as a change-list against
// the previous clock sent on that link:
//
//   frame   := tag:u8 (kFull | kDelta)
//              varint(source.process) varint(source.index)
//              clock bytes — absolute (tag kFull, VectorClock::encode) or
//              relative to the link's previous clock (tag kDelta)
//   changes := varint(count) { varint(index gap) zigzag(value delta) }
//
// Each change names a component that differs from the previous clock, as
// the gap from the previous changed index and the signed value delta, so
// a delta frame's bytes track the event's causal fan-in, not |P|.
//
// Every `full_interval`-th frame (and the first) is absolute, so a receiver
// that lost codec state — or joined mid-stream via snapshot/resync — locks
// back on at the next full frame without a round trip; reset() forces one.
// Chained deltas REQUIRE FIFO delivery of the encoded byte stream; for
// lossy or reordering transports construct the codec with full_interval = 1
// (every frame absolute — still varint/delta-compressed column-wise, just
// not chained).
//
// Both ends keep the link's previous clock as a dense VectorClock, so the
// codec is the only place the compressed form exists: try_decode() fills
// a WireMessage with a dense clock, and everything past the codec (gap
// tracking, watermark minima, retention cuts) never sees anything else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/vector_clock.hpp"
#include "online/online_system.hpp"

namespace syncon {

/// Appends `clock` as a change-list against `base` (same size required).
void encode_relative(const VectorClock& clock, const VectorClock& base,
                     std::vector<std::uint8_t>& out);
/// Consumes one change-list from the front of `in` and applies it to
/// `clock` in place (holding the base on entry). On a throw `clock` may be
/// partly changed.
void decode_relative(std::span<const std::uint8_t>& in, VectorClock& clock);

/// Sender-side half of one directed FIFO link.
class LinkEncoder {
 public:
  /// `full_interval` = n emits an absolute frame every n-th message
  /// (1 = every frame absolute; the first frame is always absolute).
  explicit LinkEncoder(std::size_t process_count,
                       std::uint32_t full_interval = 16);

  /// Appends one frame for `message` to `out`; returns the frame size in
  /// bytes (the codec's per-message piggyback cost).
  std::size_t encode(const WireMessage& message, std::vector<std::uint8_t>& out);

  /// Forces the next frame to be absolute (sender-side resync).
  void reset() { since_full_ = full_interval_; }

 private:
  VectorClock last_;
  std::uint32_t full_interval_;
  std::uint32_t since_full_;
};

/// Receiver-side half of one directed FIFO link.
class LinkDecoder {
 public:
  explicit LinkDecoder(std::size_t process_count);

  /// Decodes into `out`, in place: consumes one frame iff it parses cleanly
  /// with the current codec state; on garbage (empty input, unknown tag,
  /// malformed varints, foreign clock size, a delta frame while unsynced —
  /// before any full frame after construction or reset) returns false with
  /// `in` and the codec state untouched — `out` is then unspecified — so
  /// the caller can skip or quarantine the bytes and keep the link alive
  /// (DESIGN.md §3.12). A delta frame into an `out` that already holds a
  /// clock of the link's size allocates nothing.
  bool try_decode(std::span<const std::uint8_t>& in, WireMessage& out);

  /// Drops codec state; decoding resumes at the next absolute frame.
  void reset() { synced_ = false; }
  bool synced() const { return synced_; }

 private:
  /// Parses one frame into `out`, then commits it to the codec state: the
  /// commit follows the frame's last check, so a throw leaves last_ and
  /// synced_ as they were.
  void read(std::span<const std::uint8_t>& in, WireMessage& out);

  VectorClock last_;
  bool synced_ = false;
};

/// One executed event as both logs record it — a DurableSystem WAL record
/// is its kind byte and this, a tenant kEvent body this and its label:
///   record := link frame of `wire` varint(#sources)
///             { varint(source.process) varint(source.index) } zigzag(time)
void encode_event_record(LinkEncoder& link, const WireMessage& wire,
                         std::span<const EventId> sources, std::int64_t time,
                         std::vector<std::uint8_t>& out);

/// Consumes one record from the front of `in` into the caller's storage (a
/// delta clock into a `wire` of the link's size and sources within their
/// capacity allocate nothing). Throws ContractViolation on a malformed
/// record; an undecodable link frame leaves `link` untouched.
void decode_event_record(LinkDecoder& link, std::span<const std::uint8_t>& in,
                         WireMessage& wire, std::vector<EventId>& sources,
                         std::int64_t& time);

}  // namespace syncon
