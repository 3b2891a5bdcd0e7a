#include "model/execution_metrics.hpp"

#include "model/scalar_clock.hpp"
#include "support/contracts.hpp"

namespace syncon {

ExecutionMetrics measure_execution(const Timestamps& ts,
                                   std::size_t sample_pairs,
                                   std::uint64_t seed) {
  const Execution& exec = ts.execution();
  ExecutionMetrics m;
  m.processes = exec.process_count();
  m.events = exec.total_real_count();
  m.messages = exec.messages().size();
  m.message_density =
      m.events == 0 ? 0.0
                    : static_cast<double>(m.messages) /
                          static_cast<double>(m.events);
  const ScalarClocks scalar(exec);
  m.critical_path = scalar.critical_path_length();
  m.parallelism = m.critical_path == 0
                      ? 0.0
                      : static_cast<double>(m.events) /
                            static_cast<double>(m.critical_path);
  const auto& order = exec.topological_order();
  if (order.size() >= 2 && sample_pairs > 0) {
    Xoshiro256StarStar rng(seed);
    std::size_t concurrent = 0;
    for (std::size_t i = 0; i < sample_pairs; ++i) {
      const EventId a = order[rng.below(order.size())];
      const EventId b = order[rng.below(order.size())];
      if (a != b && ts.concurrent(a, b)) ++concurrent;
    }
    m.concurrency_ratio = static_cast<double>(concurrent) /
                          static_cast<double>(sample_pairs);
  }
  return m;
}

}  // namespace syncon
