// The conformance subsystem's generators: every sampled artifact — cases,
// workload configs, conditions, fault schedules — is a pure function of its
// seed, and the case/repro plumbing round-trips losslessly.
#include <gtest/gtest.h>

#include <sstream>

#include "check/case.hpp"
#include "check/driver.hpp"
#include "check/generators.hpp"
#include "helpers.hpp"
#include "monitor/predicate.hpp"
#include "sim/faulty_channel.hpp"
#include "support/rng.hpp"

namespace syncon::check {
namespace {

TEST(CheckGeneratorsTest, GenerateCaseIsDeterministic) {
  for (std::uint64_t seed : {1ull, 99ull, 123456789ull}) {
    SYNCON_SEED_TRACE(seed);
    const CheckCase a = generate_case(seed);
    const CheckCase b = generate_case(seed);
    EXPECT_EQ(a, b);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
  }
  EXPECT_NE(fingerprint(generate_case(1)), fingerprint(generate_case(2)));
}

TEST(CheckGeneratorsTest, GeneratedCasesAreWellFormed) {
  const int iters = testing::test_iters(40);
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = case_seed_for(11, static_cast<std::size_t>(i));
    SYNCON_SEED_TRACE(seed);
    const CheckCase c = generate_case(seed);
    EXPECT_TRUE(c.structurally_valid());
    const auto m = materialize(c);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->exec->process_count(), c.process_count());
    EXPECT_EQ(m->x.size(), c.x_members.size());
    EXPECT_EQ(m->y.size(), c.y_members.size());
    // Extraction round-trips: the case of the materialized pair is the case.
    const CheckCase back =
        case_from_execution(*m->exec, m->x.events(), m->y.events());
    EXPECT_EQ(back.events_per_process, c.events_per_process);
    EXPECT_EQ(back.messages.size(), c.messages.size());
  }
}

TEST(CheckGeneratorsTest, CaseSeedStreamMatchesSplitMix) {
  SplitMix64 stream(77);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(case_seed_for(77, i), stream.next()) << "index " << i;
  }
}

TEST(CheckGeneratorsTest, FingerprintSeesEveryField) {
  const CheckCase base = generate_case(5);
  CheckCase c = base;
  c.events_per_process.back() += 1;
  EXPECT_NE(fingerprint(c), fingerprint(base));
  c = base;
  c.x_members.pop_back();
  EXPECT_NE(fingerprint(c), fingerprint(base));
  c = base;
  c.y_members.push_back(c.y_members.front());
  EXPECT_NE(fingerprint(c), fingerprint(base));
}

TEST(CheckGeneratorsTest, ReproRoundTrips) {
  const CheckCase c = generate_case(321);
  const ReproMeta meta{"fast_vs_naive", 321};
  const std::string text = repro_to_string(c, meta);
  std::istringstream is(text);
  const Repro repro = load_repro(is);
  EXPECT_EQ(repro.c, c);
  EXPECT_EQ(repro.meta.property, meta.property);
  EXPECT_EQ(repro.meta.case_seed, meta.case_seed);
}

TEST(CheckGeneratorsTest, ConditionsParseAndAgreeWithTheirOracle) {
  const Execution exec = testing::two_process_message();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  const EventHandle x = eval.add_event(
      NonatomicEvent(exec, {EventId{0, 1}, EventId{0, 2}}, "X"));
  const EventHandle y = eval.add_event(
      NonatomicEvent(exec, {EventId{1, 2}, EventId{1, 3}}, "Y"));

  Xoshiro256StarStar rng(2024);
  const int iters = testing::test_iters(50);
  for (int i = 0; i < iters; ++i) {
    const ConditionCase cc = generate_condition(rng, 4);
    SCOPED_TRACE(cc.text);
    SyncCondition parsed = SyncCondition::parse(cc.text);
    EXPECT_EQ(parsed.evaluate(eval, x, y), cc.oracle(eval, x, y));
    EXPECT_EQ(parsed.evaluate(eval, y, x), cc.oracle(eval, y, x));
  }
}

TEST(CheckGeneratorsTest, LinkFaultsStayInTheDocumentedEnvelope) {
  Xoshiro256StarStar rng(9);
  for (int i = 0; i < 100; ++i) {
    const LinkFaultConfig link = generate_link_faults(rng);
    EXPECT_GE(link.drop_probability, 0.05);
    EXPECT_LE(link.drop_probability, 0.35);
    EXPECT_GE(link.duplicate_probability, 0.05);
    EXPECT_LE(link.duplicate_probability, 0.35);
    EXPECT_GE(link.reorder_probability, 0.05);
    EXPECT_LE(link.reorder_probability, 0.35);
    EXPECT_GE(link.min_delay, 1);
    EXPECT_LE(link.max_delay, 60);
    EXPECT_LE(link.min_delay, link.max_delay);
  }
}

TEST(CheckGeneratorsTest, RandomWorkloadConfigHonorsBounds) {
  WorkloadBounds bounds;
  bounds.min_processes = 3;
  bounds.max_processes = 5;
  bounds.min_events_per_process = 4;
  bounds.max_events_per_process = 9;
  bounds.min_send_probability = 0.2;
  bounds.max_send_probability = 0.3;
  Xoshiro256StarStar rng(31);
  for (int i = 0; i < 200; ++i) {
    const WorkloadConfig cfg = random_workload_config(rng, bounds);
    EXPECT_GE(cfg.process_count, 3u);
    EXPECT_LE(cfg.process_count, 5u);
    EXPECT_GE(cfg.events_per_process, 4u);
    EXPECT_LE(cfg.events_per_process, 9u);
    EXPECT_GE(cfg.send_probability, 0.2);
    EXPECT_LE(cfg.send_probability, 0.3);
    const Execution exec = generate_execution(cfg);
    EXPECT_EQ(exec.process_count(), cfg.process_count);
  }
}

TEST(CheckGeneratorsTest, MaterializeRejectsBrokenCases) {
  CheckCase c;
  c.events_per_process = {2, 2};
  c.x_members = {EventId{0, 1}};
  c.y_members = {EventId{1, 1}};
  // A message cycle between the two chains admits no topological order.
  c.messages = {{EventId{0, 2}, EventId{1, 1}}, {EventId{1, 2}, EventId{0, 1}}};
  EXPECT_TRUE(c.structurally_valid());
  EXPECT_FALSE(materialize(c).has_value());
  // Out-of-range member: structurally invalid before materialization.
  CheckCase bad;
  bad.events_per_process = {1};
  bad.x_members = {EventId{0, 2}};
  bad.y_members = {EventId{0, 1}};
  EXPECT_FALSE(bad.structurally_valid());
  EXPECT_FALSE(materialize(bad).has_value());
}

}  // namespace
}  // namespace syncon::check
