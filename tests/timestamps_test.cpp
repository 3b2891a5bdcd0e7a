#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "helpers.hpp"
#include "model/reachability.hpp"
#include "model/timestamps.hpp"
#include "sim/workload.hpp"

namespace syncon {
namespace {

using testing::property_sweep;
using testing::three_process_concurrent;
using testing::two_process_message;

std::vector<EventId> all_events(const Execution& exec) {
  std::vector<EventId> out;
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    for (EventIndex k = 0; k < exec.total_count(p); ++k) {
      out.push_back(EventId{p, k});
    }
  }
  return out;
}

TEST(TimestampsTest, MessageCreatesCausality) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  const EventId a1{0, 1}, a2{0, 2}, a3{0, 3};
  const EventId b1{1, 1}, b2{1, 2}, b3{1, 3};
  EXPECT_TRUE(ts.lt(a1, a2));
  EXPECT_TRUE(ts.lt(a2, b2));  // the message
  EXPECT_TRUE(ts.lt(a1, b3));  // transitively
  EXPECT_TRUE(ts.concurrent(a3, b2));
  EXPECT_TRUE(ts.concurrent(a1, b1));
  EXPECT_FALSE(ts.lt(b2, a2));
}

TEST(TimestampsTest, ForwardClockValues) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  // Convention: T(e)[i] counts dummies, so the floor is 1.
  EXPECT_EQ(ts.forward(EventId{0, 1}), VectorClock({2, 1}));
  EXPECT_EQ(ts.forward(EventId{0, 2}), VectorClock({3, 1}));
  EXPECT_EQ(ts.forward(EventId{1, 1}), VectorClock({1, 2}));
  EXPECT_EQ(ts.forward(EventId{1, 2}), VectorClock({3, 3}));  // knows a2
  EXPECT_EQ(ts.forward(EventId{1, 3}), VectorClock({3, 4}));
}

TEST(TimestampsTest, OwnComponentIsIndexPlusOne) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  for (const EventId& e : all_events(exec)) {
    EXPECT_EQ(ts.forward(e).at(e.process), e.index + 1)
        << e.process << ":" << e.index;
  }
}

TEST(TimestampsTest, DummyClockClosedForms) {
  const Execution exec = two_process_message();  // 3 real events each
  const Timestamps ts(exec);
  EXPECT_EQ(ts.forward(EventId{0, 0}), VectorClock({1, 0}));
  EXPECT_EQ(ts.forward(EventId{1, 0}), VectorClock({0, 1}));
  EXPECT_EQ(ts.forward(EventId{0, 4}), VectorClock({5, 4}));  // ⊤_0
  EXPECT_EQ(ts.forward(EventId{1, 4}), VectorClock({4, 5}));  // ⊤_1
}

TEST(TimestampsTest, ReverseCountsFutureEvents) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  // a2 = 0.2 is followed on p0 by a3 and ⊤_0 (plus itself = 3) and on p1 by
  // b2, b3, ⊤_1 (= 3).
  EXPECT_EQ(ts.reverse(EventId{0, 2}), VectorClock({3, 3}));
  // a3 = 0.3: itself + ⊤_0; nothing real on p1, only ⊤_1.
  EXPECT_EQ(ts.reverse(EventId{0, 3}), VectorClock({2, 1}));
  // ⊥_0 precedes everything incl. both ⊤s but not ⊥_1.
  EXPECT_EQ(ts.reverse(EventId{0, 0}), VectorClock({5, 4}));
  // ⊤_0 is followed only by itself.
  EXPECT_EQ(ts.reverse(EventId{0, 4}), VectorClock({1, 0}));
}

TEST(TimestampsTest, FutureCutCountsOfMessageSend) {
  const Execution exec = two_process_message();
  const Timestamps ts(exec);
  // a2↑ reaches a2 on p0 and the receive b2 on p1.
  EXPECT_EQ(ts.future_cut_counts(EventId{0, 2}), VectorClock({3, 3}));
  // a3↑: a3 on p0; nothing on p1 follows a3 except ⊤_1.
  EXPECT_EQ(ts.future_cut_counts(EventId{0, 3}), VectorClock({4, 5}));
}

TEST(TimestampsTest, ConcurrentProcessesStayIncomparable) {
  const Execution exec = three_process_concurrent();
  const Timestamps ts(exec);
  for (ProcessId p = 0; p < 3; ++p) {
    for (ProcessId q = 0; q < 3; ++q) {
      if (p == q) continue;
      EXPECT_TRUE(ts.concurrent(EventId{p, 1}, EventId{q, 2}));
    }
  }
}

TEST(TimestampsTest, DummyAxioms) {
  const Execution exec = three_process_concurrent();
  const Timestamps ts(exec);
  for (ProcessId i = 0; i < 3; ++i) {
    for (ProcessId j = 0; j < 3; ++j) {
      // ⊥_i ≺ every real event and every ⊤_j; ⊥s mutually incomparable.
      EXPECT_TRUE(ts.lt(exec.initial(i), EventId{j, 1}));
      EXPECT_TRUE(ts.lt(exec.initial(i), exec.final(j)));
      EXPECT_TRUE(ts.lt(EventId{j, 1}, exec.final(i)));
      if (i != j) {
        EXPECT_TRUE(ts.concurrent(exec.initial(i), exec.initial(j)));
        EXPECT_TRUE(ts.concurrent(exec.final(i), exec.final(j)));
      }
    }
  }
}

TEST(TimestampsTest, LeqIsReflexiveOnDummies) {
  const Execution exec = three_process_concurrent();
  const Timestamps ts(exec);
  EXPECT_TRUE(ts.leq(exec.initial(0), exec.initial(0)));
  EXPECT_TRUE(ts.leq(exec.final(2), exec.final(2)));
  EXPECT_FALSE(ts.lt(exec.final(2), exec.final(2)));
}

// ---------------------------------------------------------------------------
// Property sweep: timestamps must agree with the explicit transitive closure
// on every event pair, and T must be an isomorphism (Defn 13's property).
// ---------------------------------------------------------------------------

class TimestampPropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(TimestampPropertyTest, AgreesWithReachabilityOracle) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  const ReachabilityOracle oracle(exec);
  const auto events = all_events(exec);
  for (const EventId& a : events) {
    for (const EventId& b : events) {
      ASSERT_EQ(ts.leq(a, b), oracle.leq(a, b))
          << a.process << ":" << a.index << " vs " << b.process << ":"
          << b.index;
    }
  }
}

TEST_P(TimestampPropertyTest, ClockOrderIsomorphicToCausality) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  // For real events: e ≺ e' iff T(e) < T(e') (the paper's clock condition).
  for (const EventId& a : exec.topological_order()) {
    for (const EventId& b : exec.topological_order()) {
      if (a == b) continue;
      ASSERT_EQ(ts.lt(a, b), ts.forward(a).lt(ts.forward(b)));
    }
  }
}

// T^R(e)[i] of every real event against a count over the oracle.
void expect_reverse_matches_oracle(const Execution& exec) {
  const Timestamps ts(exec);
  const ReachabilityOracle oracle(exec);
  for (const EventId& e : exec.topological_order()) {
    const VectorClock r = ts.reverse(e);
    for (ProcessId i = 0; i < exec.process_count(); ++i) {
      ClockValue expected = 0;
      for (EventIndex k = 0; k < exec.total_count(i); ++k) {
        if (oracle.leq(e, EventId{i, k})) ++expected;
      }
      ASSERT_EQ(r[i], expected)
          << "T^R mismatch at process " << i << " for " << e;
    }
  }
}

TEST_P(TimestampPropertyTest, ReverseTimestampMatchesOracleCounts) {
  expect_reverse_matches_oracle(generate_execution(GetParam()));
}

// The reverse pass seeds each event from its process successor and only a
// process's last event from the ceiling; these shapes stress that edge.
TEST(TimestampsTest, ReverseTimestampMatchesOracleOnEdgeShapes) {
  {
    // p1 has no real events: its ceiling component is index(⊤_1) = 1 and
    // nothing may lower it.
    ExecutionBuilder b(3);
    b.local(0);
    const MessageToken m = b.send(0);
    b.receive(2, m);
    b.local(2);
    expect_reverse_matches_oracle(b.build());
  }
  {
    // Every process ends on a send, so each last event takes its F from
    // the ceiling met with its receivers' F.
    ExecutionBuilder b(3);
    b.local(0);
    const MessageToken m0 = b.send(0);
    b.receive(1, m0);
    const MessageToken m1 = b.send(1);
    b.receive(2, m1);
    b.receive(0, m1);
    const MessageToken m2 = b.send(2);
    const MessageToken m3 = b.send(0);
    b.receive(1, m2);
    b.receive(1, m3);
    b.send(1);
    expect_reverse_matches_oracle(b.build());
  }
}

// ---------------------------------------------------------------------------
// The row layout's edge cases: one stored forward row per receiving event and
// one future row per sending event (plus the floor and ceiling rows), every
// other event reading a shared row whose owner slot is stale.
// ---------------------------------------------------------------------------

// T, F and T^R of every event, and leq of every event pair, against the
// oracle; the stored rows' views of every real event; and the row counts.
void expect_stamps_match_oracle(const Execution& exec) {
  const Timestamps ts(exec);
  const ReachabilityOracle oracle(exec);
  const auto events = all_events(exec);
  for (const EventId& e : events) {
    const VectorClock t = ts.forward(e);
    const VectorClock f = ts.future_start(e);
    const VectorClock r = ts.reverse(e);
    for (ProcessId i = 0; i < exec.process_count(); ++i) {
      ClockValue before = 0, after = 0;
      ClockValue earliest = exec.total_count(i);  // sentinel: none ⪰ e
      for (EventIndex k = exec.total_count(i); k-- > 0;) {
        if (oracle.leq(EventId{i, k}, e)) ++before;
        if (oracle.leq(e, EventId{i, k})) {
          ++after;
          earliest = k;
        }
      }
      ASSERT_EQ(t[i], before) << "T of " << e << " at process " << i;
      ASSERT_EQ(f[i], earliest) << "F of " << e << " at process " << i;
      ASSERT_EQ(r[i], after) << "T^R of " << e << " at process " << i;
      if (exec.is_real(e)) {
        ASSERT_EQ(ts.forward_ref(e).at(i), before) << e;
        ASSERT_EQ(ts.future_start_ref(e).at(i), earliest) << e;
      }
    }
    for (const EventId& b : events) {
      ASSERT_EQ(ts.leq(e, b), oracle.leq(e, b)) << e << " vs " << b;
    }
  }
  std::set<EventId> receives, sends;
  for (const Message& m : exec.messages()) {
    receives.insert(m.target);
    sends.insert(m.source);
  }
  EXPECT_EQ(ts.forward_row_count(), 1 + receives.size());
  EXPECT_EQ(ts.future_row_count(), 1 + sends.size());
}

TEST(TimestampRowsTest, Gather) {
  ExecutionBuilder b(4);
  b.local(3);
  const MessageToken m0 = b.send(0);
  const MessageToken m1 = b.send(1);
  b.local(1);
  const MessageToken m2 = b.send(2);
  const std::vector<MessageToken> all{m0, m1, m2};
  b.receive_all(3, all);
  b.local(3);
  const MessageToken back = b.send(3);
  b.receive(0, back);
  expect_stamps_match_oracle(b.build());
}

TEST(TimestampRowsTest, OneSendReceivedBySeveralProcesses) {
  ExecutionBuilder b(4);
  b.local(0);
  const MessageToken m = b.send(0);
  b.local(0);
  b.receive(1, m);
  b.local(2);
  b.receive(2, m);
  b.receive(3, m);
  const MessageToken n = b.send(3);
  b.receive(0, n);
  expect_stamps_match_oracle(b.build());
}

TEST(TimestampRowsTest, EventThatReceivesIsAlsoAMessageSource) {
  ExecutionBuilder b(3);
  const EventId a = b.local(0);
  b.local(1);
  const EventId relay = b.receive_from(1, std::vector<EventId>{a});
  b.local(1);
  const EventId c = b.receive_from(2, std::vector<EventId>{relay});
  // The relay's row is its own; a later source on p1 reads it with a stale
  // owner slot, and p0 receives back from both.
  const EventId later = b.local(1);
  b.receive_from(0, std::vector<EventId>{relay, c});
  b.receive_from(2, std::vector<EventId>{later});
  expect_stamps_match_oracle(b.build());
}

TEST(TimestampRowsTest, ProcessWithoutRealEvents) {
  ExecutionBuilder b(3);
  const MessageToken m = b.send(0);
  b.receive(2, m);
  b.local(2);
  const MessageToken n = b.send(2);
  b.receive(0, n);
  expect_stamps_match_oracle(b.build());
}

TEST(TimestampRowsTest, SendOnlyAndReceiveOnlyProcesses) {
  ExecutionBuilder b(3);
  std::vector<MessageToken> tokens;
  for (int k = 0; k < 3; ++k) tokens.push_back(b.send(0));
  b.local(2);
  for (const MessageToken& t : tokens) b.receive(1, t);
  tokens.push_back(b.send(2));
  b.receive(1, tokens.back());
  expect_stamps_match_oracle(b.build());
}

TEST(TimestampRowsTest, SingleProcess) {
  {
    ExecutionBuilder b(1);
    b.local(0);
    b.local(0);
    b.local(0);
    expect_stamps_match_oracle(b.build());
  }
  expect_stamps_match_oracle(ExecutionBuilder(1).build());
}

TEST_P(TimestampPropertyTest, ForwardTimestampMatchesOracleCounts) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  const ReachabilityOracle oracle(exec);
  for (const EventId& e : exec.topological_order()) {
    const VectorClock t = ts.forward(e);
    for (ProcessId i = 0; i < exec.process_count(); ++i) {
      ClockValue expected = 0;
      for (EventIndex k = 0; k < exec.total_count(i); ++k) {
        if (oracle.leq(EventId{i, k}, e)) ++expected;
      }
      ASSERT_EQ(t[i], expected) << "T mismatch at process " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TimestampPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
