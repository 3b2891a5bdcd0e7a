#include "store/snapshot.hpp"

#include <algorithm>

#include "store/wal.hpp"
#include "support/contracts.hpp"
#include "support/varint.hpp"

namespace syncon {

namespace {

// "SYsnap" + format version byte. Bump the version on layout changes.
constexpr std::uint8_t kMagic[] = {'S', 'Y', 's', 'n', 'a', 'p', 1};

}  // namespace

std::vector<std::uint8_t> encode_snapshot(
    const RetentionCheckpoint& checkpoint) {
  const std::size_t n = checkpoint.cut.size();
  SYNCON_REQUIRE(n > 0, "snapshot of an empty system");
  SYNCON_REQUIRE(checkpoint.surface_clocks.size() == n &&
                     checkpoint.surface_times.size() == n,
                 "checkpoint components disagree on the process count");
  std::vector<std::uint8_t> payload;
  encode_varint(n, payload);
  checkpoint.cut.encode(payload);
  for (std::size_t p = 0; p < n; ++p) {
    checkpoint.surface_clocks[p].encode(payload);
    encode_signed_varint(checkpoint.surface_times[p], payload);
  }
  encode_varint(checkpoint.sequence, payload);
  encode_varint(checkpoint.reclaimed_total, payload);

  std::vector<std::uint8_t> out(std::begin(kMagic), std::end(kMagic));
  append_frame(payload, out);
  return out;
}

std::optional<RetentionCheckpoint> decode_snapshot(
    std::span<const std::uint8_t> bytes) {
  std::span<const std::uint8_t> in;
  std::size_t frame_size = 0;
  if (bytes.size() < sizeof kMagic ||
      !std::equal(std::begin(kMagic), std::end(kMagic), bytes.begin()) ||
      read_frame(bytes.subspan(sizeof kMagic), in, frame_size) !=
          PeekStatus::kOk) {
    return std::nullopt;
  }
  try {
    RetentionCheckpoint checkpoint;
    const std::size_t n = static_cast<std::size_t>(decode_varint(in));
    SYNCON_REQUIRE(n > 0, "checkpoint of an empty system");
    checkpoint.cut = VectorClock::decode(in);
    SYNCON_REQUIRE(checkpoint.cut.size() == n,
                   "checkpoint cut size does not match its process count");
    for (std::size_t p = 0; p < n; ++p) {
      checkpoint.surface_clocks.push_back(VectorClock::decode(in));
      SYNCON_REQUIRE(checkpoint.surface_clocks.back().size() == n,
                     "surface clock size does not match the process count");
      checkpoint.surface_times.push_back(decode_signed_varint(in));
    }
    checkpoint.sequence = decode_varint(in);
    checkpoint.reclaimed_total = decode_varint(in);
    if (!in.empty()) return std::nullopt;  // trailing bytes: wrong layout
    return checkpoint;
  } catch (const ContractViolation&) {
    return std::nullopt;  // malformed payload inside a CRC-valid frame
  }
}

}  // namespace syncon
