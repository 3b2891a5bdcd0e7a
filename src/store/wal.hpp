// The one frame format of every log (DESIGN.md §3.12, §3.15) and its one
// reader. The application WAL's segments, its snapshots and the daemon's
// tenant journal all write it with append_frame and read it back here:
//
//   frame := varint(payload_length) payload crc32(payload):u32le
//
// The length prefix makes frames self-delimiting; the trailing CRC makes
// torn tails and bit flips detectable. A payload is never empty (every log's
// opens with a header). A recovery scan stops at the first frame that fails
// to read — the *recovery truncation rule*: every byte after the first
// invalid frame is discarded, because an append-only log corrupted at
// offset k says nothing trustworthy beyond k.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "support/crc32.hpp"

namespace syncon {

/// Appends one CRC-framed record (of a non-empty payload) to `out`;
/// returns the frame size in bytes.
std::size_t append_frame(std::span<const std::uint8_t> payload,
                         std::vector<std::uint8_t>& out);

/// What a read of the frame at a buffer's head found.
enum class PeekStatus {
  kOk,        ///< a whole frame (CRC-clean, when the reader checks it)
  kNeedMore,  ///< the buffer ends inside the frame
  kCorrupt,   ///< a malformed, empty or over-cap length, or a CRC mismatch
};

/// The length-prefix scan of the frame at `in`'s head, no CRC check. A
/// streaming reader passes a `max_payload` cap, so a garbled length is
/// corrupt rather than a wait for bytes that never come; a stored log is
/// bounded by the bytes it holds. The length is compared with the bytes
/// left, never summed, so nothing wraps. On kOk, `payload` views the
/// payload and `frame_size` counts the frame. Never throws or consumes.
inline PeekStatus scan_frame(
    std::span<const std::uint8_t> in, std::span<const std::uint8_t>& payload,
    std::size_t& frame_size,
    std::size_t max_payload = std::numeric_limits<std::size_t>::max()) {
  // Hand-rolled varint: a truncated prefix means "need more bytes", which
  // the throwing decoder cannot tell from garbage.
  std::uint64_t length = 0;
  std::size_t used = 0;
  for (unsigned shift = 0;; shift += 7) {
    if (used >= in.size()) return PeekStatus::kNeedMore;
    if (shift >= 64) return PeekStatus::kCorrupt;
    const std::uint8_t byte = in[used++];
    length |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) break;
  }
  if (length == 0 || length > max_payload) return PeekStatus::kCorrupt;
  const std::size_t left = in.size() - used;
  if (left < 4 || length > left - 4) return PeekStatus::kNeedMore;
  payload = in.subspan(used, static_cast<std::size_t>(length));
  frame_size = used + payload.size() + 4;
  return PeekStatus::kOk;
}

/// scan_frame plus the CRC check — the one place a log's stored checksum
/// is compared; a mismatch is kCorrupt.
inline PeekStatus read_frame(
    std::span<const std::uint8_t> in, std::span<const std::uint8_t>& payload,
    std::size_t& frame_size,
    std::size_t max_payload = std::numeric_limits<std::size_t>::max()) {
  const PeekStatus status = scan_frame(in, payload, frame_size, max_payload);
  if (status != PeekStatus::kOk) return status;
  return crc32(payload) == detail::load_le32(in.data() + frame_size - 4)
             ? PeekStatus::kOk
             : PeekStatus::kCorrupt;
}

/// The recovery scan of a stored log: hands each frame's payload to
/// `consume` in order, up to the first frame that fails to read or that
/// `consume` rejects (returns false). Returns the bytes before that frame,
/// where the truncation rule cuts the log.
template <class Consume>
std::size_t read_log(std::span<const std::uint8_t> bytes, Consume&& consume) {
  std::size_t kept = 0;
  std::span<const std::uint8_t> payload;
  std::size_t frame_size = 0;
  while (kept < bytes.size() &&
         read_frame(bytes.subspan(kept), payload, frame_size) ==
             PeekStatus::kOk &&
         consume(payload)) {
    kept += frame_size;
  }
  return kept;
}

}  // namespace syncon
