#include <gtest/gtest.h>

#include <sstream>

#include "helpers.hpp"
#include "model/execution_metrics.hpp"
#include "model/scalar_clock.hpp"
#include "monitor/trace_io.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

using testing::property_sweep;
using testing::three_process_concurrent;
using testing::two_process_message;

TEST(ScalarClocksTest, MonotoneAlongCausality) {
  const Execution exec = two_process_message();
  const ScalarClocks clocks(exec);
  EXPECT_EQ(clocks.at(EventId{0, 1}), 1u);
  EXPECT_EQ(clocks.at(EventId{0, 2}), 2u);
  EXPECT_EQ(clocks.at(EventId{1, 1}), 1u);
  // The receive jumps past the send.
  EXPECT_EQ(clocks.at(EventId{1, 2}), 3u);
  EXPECT_EQ(clocks.at(EventId{1, 3}), 4u);
  EXPECT_EQ(clocks.critical_path_length(), 4u);
}

TEST(ScalarClocksTest, OrdersConcurrentEventsArbitrarily) {
  // The fundamental incompleteness: b1 and a2 are concurrent, yet
  // C(b1) = 1 < C(a2) = 2 — scalar order is NOT causality.
  const Execution exec = two_process_message();
  const ScalarClocks clocks(exec);
  const Timestamps ts(exec);
  const EventId a2{0, 2}, b1{1, 1};
  EXPECT_TRUE(ts.concurrent(a2, b1));
  EXPECT_LT(clocks.at(b1), clocks.at(a2));
  // The only sound scalar deduction:
  EXPECT_TRUE(clocks.cannot_precede(a2, b1));
}

TEST(ScalarClocksTest, RejectsDummies) {
  const Execution exec = two_process_message();
  const ScalarClocks clocks(exec);
  EXPECT_THROW(clocks.at(exec.initial(0)), ContractViolation);
}

TEST(MetricsTest, ConcurrentWorkloadHasHighConcurrency) {
  const Execution exec = three_process_concurrent();
  const Timestamps ts(exec);
  const ExecutionMetrics m = measure_execution(ts, 5000, 1);
  EXPECT_EQ(m.processes, 3u);
  EXPECT_EQ(m.events, 6u);
  EXPECT_EQ(m.messages, 0u);
  EXPECT_EQ(m.critical_path, 2u);
  EXPECT_DOUBLE_EQ(m.parallelism, 3.0);
  EXPECT_GT(m.concurrency_ratio, 0.5);
}

TEST(MetricsTest, PhasesWorkloadHasLowConcurrency) {
  WorkloadConfig free_cfg, phase_cfg;
  free_cfg.process_count = phase_cfg.process_count = 6;
  free_cfg.events_per_process = phase_cfg.events_per_process = 24;
  free_cfg.send_probability = 0.05;
  phase_cfg.topology = Topology::Phases;
  phase_cfg.phase_count = 6;
  const Execution free_exec = generate_execution(free_cfg);
  const Execution phase_exec = generate_execution(phase_cfg);
  const Timestamps ts_free(free_exec), ts_phase(phase_exec);
  const auto m_free = measure_execution(ts_free, 10000, 2);
  const auto m_phase = measure_execution(ts_phase, 10000, 2);
  // Barrier phases serialize far more pairs than sparse random messaging.
  EXPECT_LT(m_phase.concurrency_ratio, m_free.concurrency_ratio);
  EXPECT_GT(m_phase.message_density, m_free.message_density);
}

TEST(DotExportTest, EmitsProcessesMessagesAndHighlights) {
  const Execution exec = two_process_message();
  const NonatomicEvent x(exec, {EventId{0, 1}, EventId{0, 2}}, "X");
  std::ostringstream oss;
  write_dot(oss, exec, {x});
  const std::string dot = oss.str();
  EXPECT_NE(dot.find("digraph execution"), std::string::npos);
  EXPECT_NE(dot.find("cluster_p0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_p1"), std::string::npos);
  EXPECT_NE(dot.find("e0_2 -> e1_2 [style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
  // Program-order edges present.
  EXPECT_NE(dot.find("e0_1 -> e0_2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property sweep for the scalar clock condition.
// ---------------------------------------------------------------------------

class ScalarClockPropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(ScalarClockPropertyTest, ClockConditionHolds) {
  const Execution exec = generate_execution(GetParam());
  const ScalarClocks clocks(exec);
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x5ca1);
  const auto& order = exec.topological_order();
  if (order.size() < 2) return;
  for (int trial = 0; trial < 400; ++trial) {
    const EventId a = order[rng.below(order.size())];
    const EventId b = order[rng.below(order.size())];
    if (ts.lt(a, b)) {
      ASSERT_LT(clocks.at(a), clocks.at(b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScalarClockPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
