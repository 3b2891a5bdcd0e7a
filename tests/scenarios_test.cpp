// Integration tests: the scenario generators produce executions whose
// application-level synchronization structure is what the domain demands —
// verified through the relation evaluator itself.
#include <gtest/gtest.h>

#include "monitor/monitor.hpp"
#include "relations/evaluator.hpp"
#include "sim/scenarios.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

SyncMonitor monitor_for(const Scenario& s) {
  SyncMonitor m(s.execution_ptr());
  for (const NonatomicEvent& iv : s.intervals()) m.add_interval(iv);
  return m;
}

TEST(AirDefenseScenarioTest, PipelineStagesAreOrderedWithinRound) {
  const Scenario s = make_air_defense({});
  const SyncMonitor m = monitor_for(s);
  const RelationId fully_before{Relation::R1, ProxyKind::End,
                                ProxyKind::Begin};
  for (int k = 0; k < 4; ++k) {
    const std::string suffix = "/" + std::to_string(k);
    const auto detect = m.handle("detect" + suffix);
    const auto track = m.handle("track" + suffix);
    const auto decide = m.handle("decide" + suffix);
    const auto engage = m.handle("engage" + suffix);
    // Each stage fully precedes the next within the engagement round.
    EXPECT_TRUE(m.evaluator().holds(fully_before, detect, track)) << k;
    EXPECT_TRUE(m.evaluator().holds(fully_before, track, decide)) << k;
    EXPECT_TRUE(m.evaluator().holds(fully_before, decide, engage)) << k;
    // And transitively detect → engage.
    EXPECT_TRUE(m.evaluator().holds(fully_before, detect, engage)) << k;
    // Engagement never precedes its own detection.
    EXPECT_FALSE(m.evaluator().holds(
        {Relation::R4, ProxyKind::Begin, ProxyKind::End}, engage, detect))
        << k;
  }
}

TEST(AirDefenseScenarioTest, RoundsAreOrderedThroughTheCommandPost) {
  const Scenario s = make_air_defense({});
  const SyncMonitor m = monitor_for(s);
  // decide/k fully precedes engage/k+1: orders flow through command, which
  // collects battle-damage assessments before the next round.
  const RelationId fully_before{Relation::R1, ProxyKind::End,
                                ProxyKind::Begin};
  for (int k = 0; k + 1 < 4; ++k) {
    const auto d = m.handle("decide/" + std::to_string(k));
    const auto e = m.handle("engage/" + std::to_string(k + 1));
    EXPECT_TRUE(m.evaluator().holds(fully_before, d, e)) << k;
  }
}

TEST(AirDefenseScenarioTest, DetectionWavesOverlapAcrossRadars) {
  const Scenario s = make_air_defense({});
  // A detection wave spans all radars.
  const NonatomicEvent& wave = s.interval("detect/0");
  EXPECT_EQ(wave.node_count(), 3u);
}

TEST(ProcessControlScenarioTest, CyclesAreCausallyChained) {
  const Scenario s = make_process_control({});
  const SyncMonitor m = monitor_for(s);
  const RelationId fully_before{Relation::R1, ProxyKind::End,
                                ProxyKind::Begin};
  const RelationId before_command{Relation::R1, ProxyKind::End,
                                  ProxyKind::End};
  for (int k = 0; k < 5; ++k) {
    const std::string suffix = "/" + std::to_string(k);
    const auto sample = m.handle("sample" + suffix);
    const auto compute = m.handle("compute" + suffix);
    const auto actuate = m.handle("actuate" + suffix);
    // Every sample precedes the cycle's control command (the compute
    // interval's last event). The cycle's FIRST compute event is a feedback
    // receive from the previous cycle, which samples do not precede — so
    // R1(U, L) correctly fails for k >= 1 while R1(U, U) holds.
    EXPECT_TRUE(m.evaluator().holds(before_command, sample, compute)) << k;
    if (k == 0) {
      EXPECT_TRUE(m.evaluator().holds(fully_before, sample, compute));
    } else {
      EXPECT_FALSE(m.evaluator().holds(fully_before, sample, compute)) << k;
    }
    EXPECT_TRUE(m.evaluator().holds(fully_before, compute, actuate)) << k;
  }
  // Actuation feedback reaches the next cycle's command: every actuate
  // event precedes the next compute's final (send) event.
  for (int k = 0; k + 1 < 5; ++k) {
    const auto a = m.handle("actuate/" + std::to_string(k));
    const auto c = m.handle("compute/" + std::to_string(k + 1));
    EXPECT_TRUE(m.evaluator().holds(before_command, a, c)) << k;
  }
}

TEST(ProcessControlScenarioTest, SamplesOfConsecutiveCyclesNotFullyOrdered) {
  const Scenario s = make_process_control({});
  const SyncMonitor m = monitor_for(s);
  // Sensors sample cycle k+1 without waiting for each other: sample/k+1
  // never fully precedes actuate of the same cycle on ALL proxies... but
  // more interestingly, sample/k does NOT fully precede sample/k+1 with
  // (U, L) proxies because independent sensors are mutually concurrent
  // until the controller joins them.
  const auto s0 = m.handle("sample/0");
  const auto s1 = m.handle("sample/1");
  EXPECT_FALSE(m.evaluator().holds(
      {Relation::R1, ProxyKind::End, ProxyKind::Begin}, s0, s1));
  // Yet every sensor's sample/0 precedes SOME event of sample/1's future —
  // R2 via the control loop closure... R4 certainly holds.
  EXPECT_TRUE(m.evaluator().holds(
      {Relation::R4, ProxyKind::Begin, ProxyKind::End}, s0, s1));
}

TEST(MultimediaScenarioTest, DispatchPrecedesItsRender) {
  const Scenario s = make_multimedia({});
  const SyncMonitor m = monitor_for(s);
  const RelationId r2{Relation::R2, ProxyKind::End, ProxyKind::End};
  for (int g = 0; g < 6; ++g) {
    const std::string suffix = "/" + std::to_string(g);
    const auto dispatch = m.handle("dispatch" + suffix);
    const auto render = m.handle("render" + suffix);
    // The multicast send (end of dispatch) precedes every client's receive:
    // R1(U, L)(dispatch, render).
    EXPECT_TRUE(m.evaluator().holds(
        {Relation::R1, ProxyKind::End, ProxyKind::Begin}, dispatch, render))
        << g;
    EXPECT_TRUE(m.evaluator().holds(r2, dispatch, render)) << g;
  }
}

TEST(MultimediaScenarioTest, RendersOfDifferentClientsAreConcurrent) {
  const Scenario s = make_multimedia({});
  const SyncMonitor m = monitor_for(s);
  // Renders of the same group on different clients are not ordered: the
  // group's render interval does not fully precede itself shifted... check
  // render/g vs render/g: R3(L,L) (some begin event preceding all begin
  // events) must fail since client receives are concurrent.
  const auto render = m.handle("render/0");
  EXPECT_FALSE(m.evaluator().holds(
      {Relation::R3, ProxyKind::Begin, ProxyKind::Begin}, render, render));
}

TEST(MobileScenarioTest, HandoffOrdersConsecutiveSessions) {
  const Scenario s = make_mobile({});
  const SyncMonitor m = monitor_for(s);
  // For each host h: session/h/k → handoff/h/k → session/h/k+1.
  for (int h = 0; h < 2; ++h) {
    for (int k = 0; k + 1 < 4; ++k) {
      const std::string a =
          "session/" + std::to_string(h) + "/" + std::to_string(k);
      const std::string ho =
          "handoff/" + std::to_string(h) + "/" + std::to_string(k);
      const std::string b =
          "session/" + std::to_string(h) + "/" + std::to_string(k + 1);
      EXPECT_TRUE(m.check("R1(U,L)", a, ho));
      EXPECT_TRUE(m.check("R1(U,L)", ho, b));
    }
  }
}

TEST(MobileScenarioTest, SessionsOfDifferentHostsMostlyConcurrent) {
  const Scenario s = make_mobile({});
  const SyncMonitor m = monitor_for(s);
  // Host 0 and host 1 round-0 sessions go through different stations and
  // share no messages: no relation should hold in either direction.
  EXPECT_FALSE(m.check("R4(L,U)", "session/0/0", "session/1/0"));
  EXPECT_FALSE(m.check("R4(L,U)", "session/1/0", "session/0/0"));
}

TEST(ScenarioTest, IntervalLookupByLabel) {
  const Scenario s = make_air_defense({});
  EXPECT_EQ(s.interval("track/1").label(), "track/1");
  EXPECT_THROW(s.interval("nope"), ContractViolation);
  EXPECT_EQ(s.name(), "air-defense");
}

}  // namespace
}  // namespace syncon
