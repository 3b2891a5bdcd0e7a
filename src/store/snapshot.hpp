// Durable snapshot serialization (DESIGN.md §3.12): what survives of an
// OnlineSystem besides its WAL tail is exactly the RetentionCheckpoint —
// the compaction cut plus the per-process surface clocks/times (the "state
// below the cut", Lemma 16's recovery point). A snapshot file is a magic
// header followed by one CRC-framed payload, so a torn or bit-flipped
// snapshot is rejected as a whole and recovery falls back to the previous
// one (or the bottom checkpoint). The process count is the cut's size.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cuts/watermark.hpp"

namespace syncon {

/// Serializes the checkpoint: magic, then one CRC frame (store/wal.hpp).
std::vector<std::uint8_t> encode_snapshot(
    const RetentionCheckpoint& checkpoint);

/// Decodes a snapshot file; nullopt on bad magic, truncation, CRC mismatch
/// or malformed payload — the caller falls back to an older snapshot.
std::optional<RetentionCheckpoint> decode_snapshot(
    std::span<const std::uint8_t> bytes);

}  // namespace syncon
