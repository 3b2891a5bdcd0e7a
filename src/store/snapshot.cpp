#include "store/snapshot.hpp"

#include <algorithm>

#include "store/wal.hpp"
#include "support/contracts.hpp"
#include "support/varint.hpp"

namespace syncon {

namespace {

// "SYsnap" + format version byte. Bump the version on layout changes.
constexpr std::uint8_t kMagic[] = {'S', 'Y', 's', 'n', 'a', 'p', 1};

void encode_checkpoint(const RetentionCheckpoint& checkpoint,
                       std::vector<std::uint8_t>& out) {
  const std::size_t n = checkpoint.cut.size();
  SYNCON_REQUIRE(n > 0 && checkpoint.surface_clocks.size() == n &&
                     checkpoint.surface_times.size() == n,
                 "checkpoint components disagree on the process count");
  encode_varint(n, out);
  checkpoint.cut.encode(out);
  for (std::size_t p = 0; p < n; ++p) {
    checkpoint.surface_clocks[p].encode(out);
    encode_signed_varint(checkpoint.surface_times[p], out);
  }
  encode_varint(checkpoint.sequence, out);
  encode_varint(checkpoint.reclaimed_total, out);
}

RetentionCheckpoint decode_checkpoint(std::span<const std::uint8_t>& in) {
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
  return checkpoint;
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const SnapshotImage& image) {
  SYNCON_REQUIRE(image.process_count > 0, "snapshot of an empty system");
  SYNCON_REQUIRE(image.checkpoint.cut.size() == image.process_count,
                 "snapshot checkpoint does not match its process count");
  std::vector<std::uint8_t> payload;
  encode_checkpoint(image.checkpoint, payload);

  std::vector<std::uint8_t> out(std::begin(kMagic), std::end(kMagic));
  append_frame(payload, out);
  return out;
}

std::optional<SnapshotImage> decode_snapshot(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof kMagic ||
      !std::equal(std::begin(kMagic), std::end(kMagic), bytes.begin())) {
    return std::nullopt;
  }
  FrameReader reader(bytes.subspan(sizeof kMagic));
  const auto frame = reader.next();
  if (!frame) return std::nullopt;
  try {
    std::span<const std::uint8_t> in = *frame;
    SnapshotImage image;
    image.checkpoint = decode_checkpoint(in);
    image.process_count = image.checkpoint.cut.size();
    if (!in.empty()) return std::nullopt;  // trailing bytes: wrong layout
    return image;
  } catch (const ContractViolation&) {
    return std::nullopt;  // malformed payload inside a CRC-valid frame
  }
}

}  // namespace syncon
