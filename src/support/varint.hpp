// LEB128 varint and zigzag encoding — the byte-level vocabulary shared by
// the clock codec (model/vector_clock), the online link codec
// (online/wire_codec), the WAL records (store/) and the tenant wire frames
// (service/tenant_codec). Strings travel as a varint byte length followed by
// the bytes.
//
// Encoders append to a byte vector; decoders consume from the front of a
// span *by reference*, so sequential fields parse naturally:
//
//   std::span<const std::uint8_t> in = bytes;
//   const auto a = decode_varint(in);   // in now starts after a
//   const auto b = decode_varint(in);
//
// Malformed input (truncated, more than 10 continuation bytes, or a value
// too wide for the field decode_varint_as reads it into) raises a
// ContractViolation — wire decoding is a trust boundary.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "support/contracts.hpp"

namespace syncon {

/// Appends v as an unsigned LEB128 varint (1 byte per 7 bits, msb = more).
inline void encode_varint(std::uint64_t v, std::vector<std::uint8_t>& out) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Consumes one unsigned LEB128 varint from the front of `in`.
inline std::uint64_t decode_varint(std::span<const std::uint8_t>& in) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 70; shift += 7) {
    SYNCON_REQUIRE(!in.empty(), "truncated varint");
    const std::uint8_t byte = in.front();
    in = in.subspan(1);
    SYNCON_REQUIRE(shift < 64, "varint longer than 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return v;
  }
  SYNCON_REQUIRE(false, "varint longer than 64 bits");
  return 0;  // unreachable
}

/// Consumes one unsigned varint into the narrower unsigned field type T. A
/// value T cannot hold is rejected, never truncated into a different valid
/// value.
template <class T>
T decode_varint_as(std::span<const std::uint8_t>& in) {
  static_assert(std::is_unsigned_v<T>, "varint fields are unsigned");
  const std::uint64_t v = decode_varint(in);
  SYNCON_REQUIRE(v <= std::numeric_limits<T>::max(),
                 "varint value out of range for its field");
  return static_cast<T>(v);
}

/// Zigzag mapping: small-magnitude signed values become small unsigned ones
/// (0 → 0, -1 → 1, 1 → 2, -2 → 3, …) so deltas varint-encode compactly.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

inline void encode_signed_varint(std::int64_t v,
                                 std::vector<std::uint8_t>& out) {
  encode_varint(zigzag(v), out);
}

inline std::int64_t decode_signed_varint(std::span<const std::uint8_t>& in) {
  return unzigzag(decode_varint(in));
}

/// Appends `s` as varint(byte length) followed by its bytes.
inline void encode_string(const std::string& s,
                          std::vector<std::uint8_t>& out) {
  encode_varint(s.size(), out);
  out.insert(out.end(), s.begin(), s.end());
}

/// Consumes one encode_string field from the front of `in` into `out`,
/// reusing its storage.
inline void decode_string(std::span<const std::uint8_t>& in, std::string& out) {
  const std::uint64_t length = decode_varint(in);
  SYNCON_REQUIRE(length <= in.size(), "string runs past the encoded bytes");
  const auto n = static_cast<std::size_t>(length);
  out.assign(reinterpret_cast<const char*>(in.data()), n);
  in = in.subspan(n);
}

}  // namespace syncon
