// Defn 13's remark: |P| components is "the minimum size of a
// clock/timestamp that is required to capture" the property
// e ≺ e' ⟺ T(e) < T(e'). This test makes the necessity concrete with the
// classical crown construction: n sender processes s_i multicast to n
// receiver processes r_j (j ≠ i), so a_i ≺ b_j iff i ≠ j. Dropping ANY
// sender component from the canonical clocks collapses some concurrent pair
// (a_i, b_i) into an apparent ordering.
#include <gtest/gtest.h>

#include <vector>

#include "model/execution_metrics.hpp"
#include "model/reachability.hpp"
#include "model/timestamps.hpp"

namespace syncon {
namespace {

struct Crown {
  Execution exec;
  std::vector<EventId> senders;    // a_i on process i
  std::vector<EventId> receivers;  // b_i on process n + i

  static Crown make(std::size_t n) {
    ExecutionBuilder b(2 * n);
    std::vector<MessageToken> tokens;
    std::vector<EventId> sends;
    for (ProcessId i = 0; i < n; ++i) {
      EventId e;
      tokens.push_back(b.send(i, &e));
      sends.push_back(e);
    }
    std::vector<EventId> recvs;
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<MessageToken> foreign;
      for (std::size_t i = 0; i < n; ++i) {
        if (i != j) foreign.push_back(tokens[i]);
      }
      recvs.push_back(
          b.receive_all(static_cast<ProcessId>(n + j), foreign));
    }
    return Crown{b.build(), std::move(sends), std::move(recvs)};
  }
};

// leq under the clock with component `dropped` removed.
bool projected_leq(const VectorClock& a, const VectorClock& b,
                   std::size_t dropped) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i == dropped) continue;
    if (a[i] > b[i]) return false;
  }
  return true;
}

TEST(ClockDimensionTest, CrownPairsAreConcurrentDiagonally) {
  const Crown crown = Crown::make(4);
  const Timestamps ts(crown.exec);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) {
        EXPECT_TRUE(ts.concurrent(crown.senders[i], crown.receivers[j]));
      } else {
        EXPECT_TRUE(ts.lt(crown.senders[i], crown.receivers[j]));
      }
    }
  }
}

TEST(ClockDimensionTest, DroppingAnySenderComponentBreaksTheIsomorphism) {
  constexpr std::size_t n = 4;
  const Crown crown = Crown::make(n);
  const Timestamps ts(crown.exec);
  for (std::size_t dropped = 0; dropped < n; ++dropped) {
    // With sender component `dropped` removed, the concurrent diagonal pair
    // (a_dropped, b_dropped) appears ordered: a false positive.
    const VectorClock a = ts.forward(crown.senders[dropped]);
    const VectorClock b = ts.forward(crown.receivers[dropped]);
    EXPECT_FALSE(a.leq(b));  // the full clock gets it right
    EXPECT_TRUE(projected_leq(a, b, dropped))
        << "dropping component " << dropped << " should misorder the pair";
  }
}

TEST(ClockDimensionTest, FullClocksRemainExactOnTheCrown) {
  constexpr std::size_t n = 5;
  const Crown crown = Crown::make(n);
  const Timestamps ts(crown.exec);
  const ReachabilityOracle oracle(crown.exec);
  for (const EventId& a : crown.exec.topological_order()) {
    for (const EventId& b : crown.exec.topological_order()) {
      ASSERT_EQ(ts.leq(a, b), oracle.leq(a, b));
    }
  }
}

}  // namespace
}  // namespace syncon
