// The laws every clock operation rests on, checked on deterministic
// pseudo-random VectorClocks: the lattice laws of merge_max / merge_min, the
// order they induce, tick monotonicity, the row (span) forms of the merges
// and serialization round-trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "model/vector_clock.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

VectorClock random_clock(std::size_t size, std::mt19937& rng,
                         ClockValue max_value = 12) {
  std::uniform_int_distribution<ClockValue> dist(0, max_value);
  VectorClock c(size, 0);
  for (std::size_t i = 0; i < size; ++i) c.set(i, dist(rng));
  return c;
}

TEST(ClockLawsTest, FillConstructionAndAccess) {
  VectorClock c(4, 3);
  ASSERT_EQ(c.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(c.at(i), 3u);
  c.set(2, 9);
  EXPECT_EQ(c.at(2), 9u);
  c.tick(2);
  EXPECT_EQ(c.at(2), 10u);
  EXPECT_EQ(c.at(1), 3u);
}

TEST(ClockLawsTest, LatticeLaws) {
  std::mt19937 rng(7);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 9);
    const VectorClock a = random_clock(size, rng);
    const VectorClock b = random_clock(size, rng);
    const VectorClock c = random_clock(size, rng);

    // Commutativity.
    EXPECT_EQ(component_max(a, b), component_max(b, a));
    EXPECT_EQ(component_min(a, b), component_min(b, a));
    // Associativity.
    EXPECT_EQ(component_max(component_max(a, b), c),
              component_max(a, component_max(b, c)));
    EXPECT_EQ(component_min(component_min(a, b), c),
              component_min(a, component_min(b, c)));
    // Idempotence and absorption.
    EXPECT_EQ(component_max(a, a), a);
    EXPECT_EQ(component_min(a, a), a);
    EXPECT_EQ(component_max(a, component_min(a, b)), a);
    EXPECT_EQ(component_min(a, component_max(a, b)), a);
  }
}

TEST(ClockLawsTest, OrderIsTheLatticeOrder) {
  std::mt19937 rng(11);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 9);
    const VectorClock a = random_clock(size, rng, 4);
    const VectorClock b = random_clock(size, rng, 4);
    // a.leq(b) iff joining a into b changes nothing.
    EXPECT_EQ(a.leq(b), component_max(a, b) == b);
    EXPECT_EQ(a.lt(b), a.leq(b) && !(a == b));
    EXPECT_EQ(a.incomparable(b), !a.leq(b) && !b.leq(a));
    // Antisymmetry.
    if (a.leq(b) && b.leq(a)) {
      EXPECT_EQ(a, b);
    }
    // The meet and join bracket both operands.
    EXPECT_TRUE(component_min(a, b).leq(a));
    EXPECT_TRUE(a.leq(component_max(a, b)));
  }
}

TEST(ClockLawsTest, TickIsStrictlyMonotone) {
  std::mt19937 rng(13);
  for (int round = 0; round < 50; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 9);
    VectorClock c = random_clock(size, rng);
    const VectorClock before = c;
    const std::size_t i = static_cast<std::size_t>(round) % size;
    c.tick(i);
    EXPECT_TRUE(before.lt(c));
    EXPECT_EQ(c.at(i), before.at(i) + 1);
    for (std::size_t j = 0; j < size; ++j) {
      if (j != i) {
        EXPECT_EQ(c.at(j), before.at(j));
      }
    }
  }
}

// Merging a bare row is merging the clock that holds it.
TEST(ClockLawsTest, RowMergesMatchClockMerges) {
  std::mt19937 rng(17);
  for (int round = 0; round < 50; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 9);
    const VectorClock a = random_clock(size, rng);
    const VectorClock b = random_clock(size, rng);
    VectorClock hi = a, lo = a;
    hi.merge_max(b.values());
    lo.merge_min(b.values());
    EXPECT_EQ(hi, component_max(a, b));
    EXPECT_EQ(lo, component_min(a, b));
  }
  VectorClock c(3);
  const std::vector<ClockValue> short_row(2, 1);
  EXPECT_THROW(c.merge_max(std::span<const ClockValue>(short_row)),
               ContractViolation);
}

TEST(ClockLawsTest, SerializationRoundTripsAndConcatenates) {
  std::mt19937 rng(19);
  std::vector<std::uint8_t> bytes;
  std::vector<VectorClock> originals;
  for (int round = 0; round < 40; ++round) {
    // Stamped clocks have correlated adjacent components; emulate that so
    // the delta encoding's small-value path is exercised too.
    VectorClock c =
        random_clock(static_cast<std::size_t>(1 + round % 9), rng, 3);
    for (std::size_t i = 1; i < c.size(); ++i) {
      c.set(i, c.at(i) + c.at(i - 1));
    }
    c.encode(bytes);
    originals.push_back(std::move(c));
  }
  std::span<const std::uint8_t> in(bytes);
  for (const VectorClock& original : originals) {
    EXPECT_EQ(VectorClock::decode(in), original);
  }
  EXPECT_TRUE(in.empty());
}

}  // namespace
}  // namespace syncon
