#include "store/wal.hpp"

#include "support/contracts.hpp"
#include "support/varint.hpp"

namespace syncon {

std::size_t append_frame(std::span<const std::uint8_t> payload,
                         std::vector<std::uint8_t>& out) {
  SYNCON_REQUIRE(!payload.empty(), "a frame's payload is never empty");
  const std::size_t start = out.size();
  encode_varint(payload.size(), out);
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32(payload);
  out.push_back(static_cast<std::uint8_t>(crc));
  out.push_back(static_cast<std::uint8_t>(crc >> 8));
  out.push_back(static_cast<std::uint8_t>(crc >> 16));
  out.push_back(static_cast<std::uint8_t>(crc >> 24));
  return out.size() - start;
}

}  // namespace syncon
