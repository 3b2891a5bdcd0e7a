#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/faulty_channel.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

WireMessage wire(ProcessId p, EventIndex i) {
  return WireMessage{EventId{p, i}, VectorClock({1, 1, 1})};
}

TEST(FaultyChannelTest, FaultFreeChannelIsFifo) {
  LinkFaultConfig config;  // no faults, unit delay
  FaultyChannel ch(config, 1);
  ch.push(wire(0, 1), 10);
  ch.push(wire(0, 2), 20);
  ch.push(wire(0, 3), 30);
  EXPECT_EQ(ch.in_transit(), 3u);
  const auto early = ch.pop_ready(15);
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0].message.source, (EventId{0, 1}));
  EXPECT_EQ(early[0].at, 11);
  EXPECT_FALSE(early[0].duplicate_copy);
  const auto rest = ch.drain();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].message.source, (EventId{0, 2}));
  EXPECT_EQ(rest[1].message.source, (EventId{0, 3}));
  EXPECT_EQ(ch.stats().offered, 3u);
  EXPECT_EQ(ch.stats().delivered, 3u);
  EXPECT_EQ(ch.stats().dropped, 0u);
}

TEST(FaultyChannelTest, DropsAtTheConfiguredRate) {
  LinkFaultConfig config;
  config.drop_probability = 0.3;
  FaultyChannel ch(config, 99);
  for (EventIndex i = 1; i <= 1000; ++i) ch.push(wire(0, i), i);
  const auto got = ch.drain();
  const ChannelStats s = ch.stats();
  EXPECT_EQ(s.offered, 1000u);
  EXPECT_EQ(s.dropped + got.size(), 1000u);
  // Generous statistical window around 300.
  EXPECT_GT(s.dropped, 200u);
  EXPECT_LT(s.dropped, 400u);
}

TEST(FaultyChannelTest, DuplicatesCarryTheSamePayload) {
  LinkFaultConfig config;
  config.duplicate_probability = 1.0;
  config.min_delay = 1;
  config.max_delay = 50;
  FaultyChannel ch(config, 7);
  ch.push(wire(1, 4), 0);
  const auto got = ch.drain();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].message.source, (EventId{1, 4}));
  EXPECT_EQ(got[1].message.source, (EventId{1, 4}));
  EXPECT_EQ(got[0].message.clock, got[1].message.clock);
  EXPECT_TRUE(got[0].duplicate_copy || got[1].duplicate_copy);
  EXPECT_EQ(ch.stats().duplicated, 1u);
}

TEST(FaultyChannelTest, ReorderingInvertsDeliveryOrder) {
  LinkFaultConfig config;
  config.reorder_probability = 1.0;  // every arrival swaps with the previous
  FaultyChannel ch(config, 3);
  ch.push(wire(0, 1), 10);
  ch.push(wire(0, 2), 20);  // swaps times with #1 → #2 arrives first
  const auto got = ch.drain();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].message.source, (EventId{0, 2}));
  EXPECT_EQ(got[1].message.source, (EventId{0, 1}));
  EXPECT_EQ(ch.stats().reordered, 1u);
}

TEST(FaultyChannelTest, SameSeedSameSchedule) {
  LinkFaultConfig config;
  config.drop_probability = 0.2;
  config.duplicate_probability = 0.2;
  config.reorder_probability = 0.2;
  config.min_delay = 5;
  config.max_delay = 500;
  for (int run = 0; run < 2; ++run) {
    FaultyChannel a(config, 42), b(config, 42);
    for (EventIndex i = 1; i <= 200; ++i) {
      a.push(wire(0, i), i * 10);
      b.push(wire(0, i), i * 10);
    }
    const auto ga = a.drain(), gb = b.drain();
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t k = 0; k < ga.size(); ++k) {
      EXPECT_EQ(ga[k].message.source, gb[k].message.source);
      EXPECT_EQ(ga[k].at, gb[k].at);
      EXPECT_EQ(ga[k].duplicate_copy, gb[k].duplicate_copy);
    }
    EXPECT_EQ(a.stats(), b.stats());
  }
  // And a different seed yields a different schedule.
  FaultyChannel a(config, 42), c(config, 43);
  for (EventIndex i = 1; i <= 200; ++i) {
    a.push(wire(0, i), i * 10);
    c.push(wire(0, i), i * 10);
  }
  EXPECT_NE(a.stats(), c.stats());
}

TEST(FaultyChannelTest, RejectsMalformedConfigs) {
  LinkFaultConfig bad;
  bad.drop_probability = 1.0;
  EXPECT_THROW(FaultyChannel(bad, 1), ContractViolation);
  bad = {};
  bad.min_delay = 10;
  bad.max_delay = 5;
  EXPECT_THROW(FaultyChannel(bad, 1), ContractViolation);
}

TEST(FaultPlanTest, CrashWindows) {
  FaultPlan plan;
  plan.crashes = {CrashWindow{1, 100, 200}, CrashWindow{1, 500, kNeverRestarts}};
  EXPECT_FALSE(plan.crashed_at(1, 99));
  EXPECT_TRUE(plan.crashed_at(1, 100));
  EXPECT_TRUE(plan.crashed_at(1, 199));
  EXPECT_FALSE(plan.crashed_at(1, 200));  // restarted
  EXPECT_TRUE(plan.crashed_at(1, 1000000));
  EXPECT_FALSE(plan.crashed_at(0, 150));
  EXPECT_EQ(plan.first_crash(1), 100);
  EXPECT_EQ(plan.first_crash(0), kNeverRestarts);
}

TEST(FaultyNetworkTest, RoutesPerLinkAndAggregatesStats) {
  FaultPlan plan;  // fault-free
  FaultyNetwork net(3, plan);
  net.push(0, 2, wire(0, 1), 10);
  net.push(1, 2, wire(1, 1), 5);
  net.push(0, 1, wire(0, 2), 7);
  const auto at2 = net.pop_ready(2, 1000);
  ASSERT_EQ(at2.size(), 2u);
  // Delivery order across links follows arrival time.
  EXPECT_EQ(at2[0].message.source, (EventId{1, 1}));
  EXPECT_EQ(at2[1].message.source, (EventId{0, 1}));
  const auto at1 = net.drain(1);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(net.stats().offered, 3u);
  EXPECT_EQ(net.stats().delivered, 3u);
}

TEST(FaultyNetworkTest, CrashWindowsEatTraffic) {
  FaultPlan plan;
  plan.crashes = {CrashWindow{1, 50, 150}};
  FaultyNetwork net(2, plan);
  // Sender crashed: message never enters the link.
  net.push(1, 0, wire(1, 1), 60);
  EXPECT_EQ(net.drain(0).size(), 0u);
  // Receiver crashed at arrival time: arrival is lost.
  net.push(0, 1, wire(0, 1), 99);  // unit delay → arrives at 100, inside
  EXPECT_EQ(net.drain(1).size(), 0u);
  // Outside the window traffic flows.
  net.push(0, 1, wire(0, 2), 200);
  EXPECT_EQ(net.drain(1).size(), 1u);
  const ChannelStats s = net.stats();
  EXPECT_EQ(s.offered, 3u);
  EXPECT_EQ(s.dropped, 2u);
}

}  // namespace
}  // namespace syncon
