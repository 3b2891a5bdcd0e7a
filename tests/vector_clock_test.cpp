#include <gtest/gtest.h>

#include <sstream>

#include "model/vector_clock.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

TEST(VectorClockTest, FillConstructor) {
  VectorClock vc(3, 7);
  ASSERT_EQ(vc.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(vc.at(i), 7u);
}

TEST(VectorClockTest, ComponentAccessChecked) {
  VectorClock vc(2);
  EXPECT_THROW(vc.at(2), ContractViolation);
  EXPECT_THROW(vc.set(5, 1), ContractViolation);
  EXPECT_THROW(vc.tick(2), ContractViolation);
  const VectorClock& cvc = vc;
  EXPECT_THROW(cvc[5], ContractViolation);
}

TEST(VectorClockTest, MergeMaxTakesComponentwiseMax) {
  VectorClock a({1, 5, 3});
  const VectorClock b({4, 2, 3});
  a.merge_max(b);
  EXPECT_EQ(a, VectorClock({4, 5, 3}));
}

TEST(VectorClockTest, MergeMinTakesComponentwiseMin) {
  VectorClock a({1, 5, 3});
  const VectorClock b({4, 2, 3});
  a.merge_min(b);
  EXPECT_EQ(a, VectorClock({1, 2, 3}));
}

TEST(VectorClockTest, MergeSizeMismatchRejected) {
  VectorClock a(2), b(3);
  EXPECT_THROW(a.merge_max(b), ContractViolation);
  EXPECT_THROW(a.merge_min(b), ContractViolation);
}

TEST(VectorClockTest, LeqIsComponentwise) {
  const VectorClock a({1, 2, 3});
  const VectorClock b({1, 3, 3});
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
  EXPECT_TRUE(a.leq(a));
}

TEST(VectorClockTest, LtIsStrict) {
  const VectorClock a({1, 2});
  const VectorClock b({1, 3});
  EXPECT_TRUE(a.lt(b));
  EXPECT_FALSE(a.lt(a));
  EXPECT_FALSE(b.lt(a));
}

TEST(VectorClockTest, IncomparableDetected) {
  const VectorClock a({1, 4});
  const VectorClock b({2, 3});
  EXPECT_TRUE(a.incomparable(b));
  EXPECT_TRUE(b.incomparable(a));
  EXPECT_FALSE(a.incomparable(a));
}

TEST(VectorClockTest, LatticeAlgebra) {
  const VectorClock a({1, 4, 2});
  const VectorClock b({2, 3, 2});
  const VectorClock lo = component_min(a, b);
  const VectorClock hi = component_max(a, b);
  // min is the greatest lower bound, max the least upper bound.
  EXPECT_TRUE(lo.leq(a));
  EXPECT_TRUE(lo.leq(b));
  EXPECT_TRUE(a.leq(hi));
  EXPECT_TRUE(b.leq(hi));
  // Absorption: min(a, max(a,b)) == a.
  EXPECT_EQ(component_min(a, hi), a);
  EXPECT_EQ(component_max(a, lo), a);
}

TEST(VectorClockTest, StreamFormat) {
  std::ostringstream oss;
  oss << VectorClock({1, 2, 3});
  EXPECT_EQ(oss.str(), "[1 2 3]");
}

}  // namespace
}  // namespace syncon
