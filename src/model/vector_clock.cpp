#include "model/vector_clock.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "support/contracts.hpp"
#include "support/varint.hpp"

namespace syncon {

VectorClock::VectorClock(std::size_t size, ClockValue fill)
    : components_(size, fill) {}

VectorClock::VectorClock(std::vector<ClockValue> components)
    : components_(std::move(components)) {}

void VectorClock::merge_max(std::span<const ClockValue> other) {
  SYNCON_REQUIRE(size() == other.size(), "merging clocks of different size");
  for (std::size_t i = 0; i < components_.size(); ++i) {
    components_[i] = std::max(components_[i], other[i]);
  }
}

void VectorClock::merge_min(std::span<const ClockValue> other) {
  SYNCON_REQUIRE(size() == other.size(), "merging clocks of different size");
  for (std::size_t i = 0; i < components_.size(); ++i) {
    components_[i] = std::min(components_[i], other[i]);
  }
}

bool VectorClock::leq(const VectorClock& other) const {
  SYNCON_REQUIRE(size() == other.size(), "comparing clocks of different size");
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i] > other.components_[i]) return false;
  }
  return true;
}

bool VectorClock::lt(const VectorClock& other) const {
  return leq(other) && components_ != other.components_;
}

bool VectorClock::incomparable(const VectorClock& other) const {
  return !leq(other) && !other.leq(*this);
}

void VectorClock::encode(std::vector<std::uint8_t>& out) const {
  encode_varint(components_.size(), out);
  std::int64_t prev = 0;
  for (const ClockValue v : components_) {
    encode_signed_varint(static_cast<std::int64_t>(v) - prev, out);
    prev = static_cast<std::int64_t>(v);
  }
}

VectorClock VectorClock::decode(std::span<const std::uint8_t>& in) {
  VectorClock clock;
  clock.decode_from(in);
  return clock;
}

void VectorClock::decode_from(std::span<const std::uint8_t>& in) {
  const std::uint64_t n = decode_varint(in);
  // Every component takes at least one byte: bound the wire's count before
  // it sizes a buffer.
  SYNCON_REQUIRE(n <= in.size(), "clock size runs past the encoded bytes");
  components_.clear();
  components_.reserve(n);
  constexpr std::int64_t kMax = std::numeric_limits<ClockValue>::max();
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    // Range-check the delta itself, so the sum cannot overflow.
    const std::int64_t delta = decode_signed_varint(in);
    SYNCON_REQUIRE(delta >= -prev && delta <= kMax - prev,
                   "decoded clock component out of range");
    prev += delta;
    components_.push_back(static_cast<ClockValue>(prev));
  }
}

std::ostream& operator<<(std::ostream& os, const VectorClock& vc) {
  os << '[';
  for (std::size_t i = 0; i < vc.size(); ++i) {
    if (i != 0) os << ' ';
    os << vc.at(i);
  }
  return os << ']';
}

}  // namespace syncon
