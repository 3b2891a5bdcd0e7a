#include <gtest/gtest.h>

#include "cuts/ll_relation.hpp"
#include "cuts/special_cuts.hpp"
#include "helpers.hpp"
#include "support/rng.hpp"

namespace syncon {
namespace {

using testing::property_sweep;
using testing::two_process_message;

TEST(LLRelationTest, BasicStrictInclusion) {
  const Execution exec = two_process_message();
  const Cut small(exec, VectorClock({2, 2}));
  const Cut big(exec, VectorClock({4, 4}));
  EXPECT_TRUE(ll(small, big));
  EXPECT_FALSE(ll(big, small));
  EXPECT_FALSE(ll(small, small));  // needs proper containment per node
}

TEST(LLRelationTest, BottomTargetNeverDominates) {
  const Execution exec = two_process_message();
  const Cut bottom = Cut::bottom(exec);
  const Cut other(exec, VectorClock({2, 1}));
  // <<(C, E^⊥) is false by definition (robustness clause).
  EXPECT_FALSE(ll(other, bottom));
  EXPECT_FALSE(ll(bottom, bottom));
  // E^⊥ << C' holds whenever C' is not E^⊥ (N_C is empty).
  EXPECT_TRUE(ll(bottom, other));
}

TEST(LLRelationTest, OnlyNodeSetComponentsMatter) {
  const Execution exec = two_process_message();
  // C has events only on p0; p1 may regress without breaking <<.
  const Cut c(exec, VectorClock({2, 4}));
  const Cut c_prime(exec, VectorClock({3, 2}));
  EXPECT_FALSE(ll(c, c_prime));  // p1 is in N_C and 4 >= 2
  const Cut c2(exec, VectorClock({2, 1}));
  EXPECT_TRUE(ll(c2, c_prime));  // N_{C2} = {0}: 2 < 3
}

TEST(LLRelationTest, FormsAgreeOnHandPickedCuts) {
  const Execution exec = two_process_message();
  const std::vector<VectorClock> counts = {
      {1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}, {2, 3}, {4, 4},
  };
  for (const auto& a : counts) {
    for (const auto& b : counts) {
      const Cut c(exec, a), cp(exec, b);
      const bool canonical = ll(c, cp);
      EXPECT_EQ(canonical, ll_form1(c, cp)) << a << " " << b;
      EXPECT_EQ(canonical, !not_ll_form2(c, cp)) << a << " " << b;
      EXPECT_EQ(canonical, ll_form3(c, cp)) << a << " " << b;
      EXPECT_EQ(canonical, !not_ll_form4(c, cp)) << a << " " << b;
    }
  }
}

TEST(LLRelationTest, DegenerateDivergenceOnEmptyProcessFinals) {
  // DESIGN.md §3.2: the four literal forms diverge from the canonical
  // counts form only when C contains the ⊤ of an event-less process. This
  // pins the divergence down so it stays documented.
  ExecutionBuilder b(2);
  b.local(0);  // p1 has no real events
  const Execution exec = b.build();
  const Cut c(exec, VectorClock({2, 2}));        // contains ⊤_1
  const Cut c_prime(exec, VectorClock({3, 2}));  // also contains ⊤_1
  // Canonical: N_C = {0} (p1 excluded by Defn 1), 2 < 3 → <<.
  EXPECT_TRUE(ll(c, c_prime));
  // Form 1 quantifies z = ⊤_1 ∈ S(C)\E^⊥ and finds it on S(C') → fails.
  EXPECT_FALSE(ll_form1(c, c_prime));
}

TEST(Theorem19Test, ProbeFindsViolationAtListedNode) {
  const Execution exec = two_process_message();
  QueryCost counter;
  const VectorClock down({3, 1});
  const VectorClock up({3, 4});
  const std::vector<ProcessId> nodes{0};
  EXPECT_TRUE(theorem19_violated(down, up, nodes, counter));
  EXPECT_EQ(counter.integer_comparisons, 1u);
}

TEST(Theorem19Test, ProbeCountsOnePerNodeUntilHit) {
  QueryCost counter;
  const VectorClock down({1, 1, 5, 9});
  const VectorClock up({9, 9, 5, 1});
  const std::vector<ProcessId> nodes{0, 1, 2, 3};
  EXPECT_TRUE(theorem19_violated(down, up, nodes, counter));
  EXPECT_EQ(counter.integer_comparisons, 3u);  // early exit at node 2
}

TEST(Theorem19Test, NoViolationCostsAllProbes) {
  QueryCost counter;
  const VectorClock down({1, 2, 3});
  const VectorClock up({2, 3, 4});
  const std::vector<ProcessId> nodes{0, 1, 2};
  EXPECT_FALSE(theorem19_violated(down, up, nodes, counter));
  EXPECT_EQ(counter.integer_comparisons, 3u);
}

// ---------------------------------------------------------------------------
// Property sweep: on the ↓y / x↑ cut pairs the theory applies to, the
// Theorem 19 probe over {node(x)} ∪ {node(y)}-style sets must agree with the
// full |P|-scan canonical test.
// ---------------------------------------------------------------------------

class LLPropertyTest : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(LLPropertyTest, SingleEventCutProbesMatchCanonical) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xabcdef);
  const auto& order = exec.topological_order();
  if (order.empty()) return;
  for (int trial = 0; trial < 200; ++trial) {
    const EventId x = order[rng.below(order.size())];
    const EventId y = order[rng.below(order.size())];
    const Cut down = past_cut(ts, y);
    const Cut up = future_cut(ts, x);
    const bool canonical = !ll(down, up);
    QueryCost counter;
    // For single events, N_X = {node(x)} and N_Y = {node(y)}; both probes
    // must agree with the canonical full scan.
    const std::vector<ProcessId> nx{x.process};
    const std::vector<ProcessId> ny{y.process};
    ASSERT_EQ(theorem19_violated(down.counts(), up.counts(), nx, counter),
              canonical);
    ASSERT_EQ(theorem19_violated(down.counts(), up.counts(), ny, counter),
              canonical);
    // And ¬<<(↓y, x↑) must mean exactly x ⪯ y for atomic events.
    ASSERT_EQ(canonical, ts.leq(x, y));
  }
}

TEST_P(LLPropertyTest, FormsAgreeOnDownStyleCuts) {
  // Forms 7.1–7.4 agree with the canonical counts form whenever C contains
  // no final events of event-less processes — true for every ↓-style cut.
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x1234);
  const auto& order = exec.topological_order();
  if (order.empty()) return;
  for (int trial = 0; trial < 100; ++trial) {
    const EventId y = order[rng.below(order.size())];
    const EventId x = order[rng.below(order.size())];
    const Cut c = past_cut(ts, y);
    const Cut cp = future_cut(ts, x);
    const bool canonical = ll(c, cp);
    ASSERT_EQ(canonical, ll_form1(c, cp));
    ASSERT_EQ(canonical, !not_ll_form2(c, cp));
    ASSERT_EQ(canonical, ll_form3(c, cp));
    ASSERT_EQ(canonical, !not_ll_form4(c, cp));
  }
}

TEST_P(LLPropertyTest, LLIsTransitiveAndIrreflexive) {
  const Execution exec = generate_execution(GetParam());
  Xoshiro256StarStar rng(GetParam().seed ^ 0x717);
  auto random_cut = [&]() {
    VectorClock counts(exec.process_count());
    for (ProcessId p = 0; p < exec.process_count(); ++p) {
      counts.set(p,
                 static_cast<ClockValue>(1 + rng.below(exec.total_count(p))));
    }
    return Cut(exec, std::move(counts));
  };
  for (int trial = 0; trial < 60; ++trial) {
    const Cut a = random_cut(), b = random_cut(), c = random_cut();
    ASSERT_FALSE(ll(a, a)) << "<< must be irreflexive";
    if (ll(a, b) && ll(b, c)) {
      ASSERT_TRUE(ll(a, c)) << "<< must be transitive";
    }
    // << strengthens ⊂ on the node set: <<(a, b) implies a's node-set
    // portion is strictly below b's there.
    if (ll(a, b)) {
      for (const ProcessId i : a.node_set()) {
        ASSERT_LT(a.counts()[i], b.counts()[i]);
      }
    }
  }
}

TEST_P(LLPropertyTest, ViolationMeansSurfaceDominance) {
  // The paper's "significance of ≪̸": if ¬<<(C, C'), some event of S(C)
  // equals-or-follows some event of S(C') — checked against the oracle.
  const Execution exec = generate_execution(GetParam());
  const ReachabilityOracle oracle(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x718);
  auto random_cut = [&]() {
    VectorClock counts(exec.process_count());
    for (ProcessId p = 0; p < exec.process_count(); ++p) {
      counts.set(p,
                 static_cast<ClockValue>(1 + rng.below(exec.total_count(p))));
    }
    return Cut(exec, std::move(counts));
  };
  for (int trial = 0; trial < 40; ++trial) {
    const Cut c = random_cut(), cp = random_cut();
    if (ll(c, cp) || c.is_bottom()) continue;  // need a violation with N_C ≠ ∅
    if (cp.is_bottom()) continue;              // robustness clause case
    bool dominated = false;
    for (ProcessId i = 0; i < exec.process_count(); ++i) {
      for (ProcessId j = 0; j < exec.process_count(); ++j) {
        if (oracle.leq(cp.surface_event(j), c.surface_event(i))) {
          dominated = true;
        }
      }
    }
    ASSERT_TRUE(dominated);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LLPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
