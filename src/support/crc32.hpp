// CRC-32 (ISO-HDLC polynomial 0xEDB88320, the zlib/PNG variant) for the
// durability layer's record framing (store/wal.hpp) and the service's
// frame envelopes (service/tenant_codec.hpp). Every WAL frame, snapshot
// and tenant frame carries the checksum of its payload; a mismatch marks
// the frame as torn or corrupted (DESIGN.md §3.12, §3.15).
//
// Slicing-by-8: eight constexpr-initialized 256-entry tables fold eight
// input bytes per step, with eight independent lookups instead of a chain
// of eight dependent ones. Of the last 0–7 bytes, four take one step on
// tables 0–3 when there are four, and the rest the bytewise step on table
// 0 alone. The checksum is bit-identical to the bytewise definition, which
// tests/support_test.cpp keeps as the reference.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace syncon {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Table 0 is the bytewise table; table k advances a byte's contribution
/// past k further zero bytes.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      t[k][n] = t[0][t[k - 1][n] & 0xFFu] ^ (t[k - 1][n] >> 8);
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

/// CRC-32 of `bytes`, optionally continuing from a previous checksum (pass
/// the prior result as `seed` to checksum split buffers incrementally).
inline std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                           std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = detail::load_le32(p) ^ c;
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  if (n >= 4) {
    const std::uint32_t lo = detail::load_le32(p) ^ c;
    c = t[3][lo & 0xFFu] ^ t[2][(lo >> 8) & 0xFFu] ^
        t[1][(lo >> 16) & 0xFFu] ^ t[0][lo >> 24];
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace syncon
