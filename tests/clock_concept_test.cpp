// Contract suite for the clock concept (model/clock.hpp): every backend
// must satisfy the same lattice laws, order semantics, tick monotonicity
// and serialization round-trips. The laws are checked on deterministic
// pseudo-random clocks, so sparse/structured backends are exercised on both
// their fast and fallback paths; a separate causal simulation pins the
// TreeClock pruned joins against the dense backend step by step.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "model/clock.hpp"
#include "model/tree_clock.hpp"
#include "model/vector_clock.hpp"

namespace syncon {
namespace {

static_assert(ClockRep<VectorClock>);
static_assert(ClockRep<TreeClock>);

template <typename Clock>
class ClockConceptTest : public ::testing::Test {
 protected:
  Clock random_clock(std::size_t size, std::mt19937& rng,
                     ClockValue max_value = 12) {
    std::uniform_int_distribution<ClockValue> dist(0, max_value);
    Clock c(size, 0);
    for (std::size_t i = 0; i < size; ++i) c.set(i, dist(rng));
    return c;
  }
};

using Backends = ::testing::Types<VectorClock, TreeClock>;
TYPED_TEST_SUITE(ClockConceptTest, Backends);

TYPED_TEST(ClockConceptTest, FillConstructionAndAccess) {
  TypeParam c(4, 3);
  ASSERT_EQ(c.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(c.at(i), 3u);
  c.set(2, 9);
  EXPECT_EQ(c.at(2), 9u);
  c.tick(2);
  EXPECT_EQ(c.at(2), 10u);
  EXPECT_EQ(c.at(1), 3u);
}

TYPED_TEST(ClockConceptTest, LatticeLaws) {
  std::mt19937 rng(7);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 9);
    const TypeParam a = this->random_clock(size, rng);
    const TypeParam b = this->random_clock(size, rng);
    const TypeParam c = this->random_clock(size, rng);

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

TYPED_TEST(ClockConceptTest, OrderIsTheLatticeOrder) {
  std::mt19937 rng(11);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 9);
    const TypeParam a = this->random_clock(size, rng, 4);
    const TypeParam b = this->random_clock(size, rng, 4);
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

TYPED_TEST(ClockConceptTest, TickIsStrictlyMonotone) {
  std::mt19937 rng(13);
  for (int round = 0; round < 50; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 9);
    TypeParam c = this->random_clock(size, rng);
    const TypeParam before = c;
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

TYPED_TEST(ClockConceptTest, DenseConversionRoundTrips) {
  std::mt19937 rng(17);
  for (int round = 0; round < 50; ++round) {
    const TypeParam c = this->random_clock(static_cast<std::size_t>(1 + round % 9), rng);
    const VectorClock dense = c.to_dense();
    ASSERT_EQ(dense.size(), c.size());
    for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(dense.at(i), c.at(i));
    EXPECT_EQ(TypeParam::from_dense(dense), c);
  }
}

TYPED_TEST(ClockConceptTest, SerializationRoundTripsAndConcatenates) {
  std::mt19937 rng(19);
  std::vector<std::uint8_t> bytes;
  std::vector<TypeParam> originals;
  for (int round = 0; round < 40; ++round) {
    // Stamped clocks have correlated adjacent components; emulate that so
    // the delta encoding's small-value path is exercised too.
    TypeParam c = this->random_clock(static_cast<std::size_t>(1 + round % 9), rng, 3);
    for (std::size_t i = 1; i < c.size(); ++i) {
      c.set(i, c.at(i) + c.at(i - 1));
    }
    c.encode(bytes);
    originals.push_back(std::move(c));
  }
  std::span<const std::uint8_t> in(bytes);
  for (const TypeParam& original : originals) {
    EXPECT_EQ(TypeParam::decode(in), original);
  }
  EXPECT_TRUE(in.empty());
}

// Both backends share the absolute wire layout, so a clock encoded by one
// backend decodes through the other.
TEST(ClockInteropTest, WireFormatIsSharedAcrossBackends) {
  const VectorClock dense({3, 1, 4, 1, 5});
  std::vector<std::uint8_t> bytes;
  dense.encode(bytes);
  std::span<const std::uint8_t> in1(bytes);
  EXPECT_EQ(TreeClock::decode(in1).to_dense(), dense);

  bytes.clear();
  TreeClock::from_dense(dense).encode(bytes);
  std::span<const std::uint8_t> in2(bytes);
  EXPECT_EQ(VectorClock::decode(in2), dense);
}

// Step-for-step simulation of a message-passing run under the stamping
// discipline (start from the predecessor or the all-ones floor, tick the
// owner, join the piggybacked clocks): the TreeClock must stay on its
// causal fast path and agree with the dense backend after every event.
TEST(TreeClockCausalTest, SimulatedRunMatchesDenseAndStaysCausal) {
  constexpr std::size_t kProcs = 8;
  constexpr int kEvents = 600;
  std::mt19937 rng(23);
  std::uniform_int_distribution<std::size_t> proc_dist(0, kProcs - 1);
  std::uniform_int_distribution<int> kind_dist(0, 3);

  std::vector<TreeClock> tree(kProcs, TreeClock(kProcs, 1));
  std::vector<VectorClock> dense(kProcs, VectorClock(kProcs, 1));
  // In-flight messages: (tree clock, dense clock) pairs.
  std::vector<std::pair<TreeClock, VectorClock>> in_flight;

  for (int step = 0; step < kEvents; ++step) {
    const std::size_t p = proc_dist(rng);
    tree[p].tick(p);
    dense[p].tick(p);
    const int kind = kind_dist(rng);
    if (kind == 0 || in_flight.empty()) {
      // Send: snapshot the post-tick clock onto the wire.
      in_flight.emplace_back(tree[p], dense[p]);
    } else if (kind == 1) {
      // Receive one pending message (any order across links).
      std::uniform_int_distribution<std::size_t> pick(0, in_flight.size() - 1);
      const std::size_t m = pick(rng);
      tree[p].merge_max(in_flight[m].first);
      dense[p].merge_max(in_flight[m].second);
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(m));
    }
    ASSERT_TRUE(tree[p].causal()) << "step " << step;
    ASSERT_EQ(tree[p].root(), static_cast<ProcessId>(p));
    ASSERT_EQ(tree[p].to_dense(), dense[p]) << "step " << step;
  }
}

// Non-causal inputs (arbitrary set() values) must demote TreeClock to its
// dense fallback, never silently prune.
TEST(TreeClockCausalTest, ArbitraryWritesDemoteToDenseFallback) {
  TreeClock a(4, 1);
  a.tick(2);
  EXPECT_TRUE(a.causal());
  a.set(0, 9);
  EXPECT_FALSE(a.causal());

  TreeClock b(4, 1);
  b.tick(1);
  b.merge_max(a);  // non-causal source → dense path
  EXPECT_FALSE(b.causal());
  EXPECT_EQ(b.to_dense(), VectorClock({9, 2, 2, 1}));
}

TEST(TreeClockCausalTest, MergeMinAndDecodeAreNonCausal) {
  TreeClock a(3, 1);
  a.tick(0);
  TreeClock b(3, 1);
  b.tick(1);
  a.merge_min(b);
  EXPECT_FALSE(a.causal());
  EXPECT_EQ(a.to_dense(), VectorClock({1, 1, 1}));

  std::vector<std::uint8_t> bytes;
  b.encode(bytes);
  std::span<const std::uint8_t> in(bytes);
  EXPECT_FALSE(TreeClock::decode(in).causal());
}

}  // namespace
}  // namespace syncon
