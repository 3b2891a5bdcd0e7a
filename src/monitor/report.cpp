#include "monitor/report.hpp"

#include <ostream>
#include <sstream>
#include <utility>

#include "model/execution_metrics.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/interaction_types.hpp"
#include "support/table.hpp"

namespace syncon {

void write_report(std::ostream& os, const SyncMonitor& monitor,
                  const ReportOptions& options) {
  const Execution& exec = monitor.execution();
  const ExecutionMetrics metrics = measure_execution(monitor.timestamps());

  os << "=== trace ===\n";
  TextTable trace_table({"metric", "value"});
  trace_table.new_row().add_cell(std::string("processes"))
      .add_cell(metrics.processes);
  trace_table.new_row().add_cell(std::string("events"))
      .add_cell(metrics.events);
  trace_table.new_row().add_cell(std::string("messages"))
      .add_cell(metrics.messages);
  trace_table.new_row().add_cell(std::string("message density"))
      .add_cell(metrics.message_density, 2);
  trace_table.new_row().add_cell(std::string("concurrency ratio"))
      .add_cell(metrics.concurrency_ratio, 2);
  trace_table.new_row().add_cell(std::string("critical path"))
      .add_cell(metrics.critical_path);
  trace_table.new_row().add_cell(std::string("parallelism"))
      .add_cell(metrics.parallelism, 1);
  trace_table.print(os);

  os << "\n=== intervals ===\n";
  TextTable interval_table({"label", "|X|", "|N_X|", "nodes"});
  const std::size_t n = monitor.interval_count();
  for (std::size_t i = 0; i < n; ++i) {
    const NonatomicEvent& iv = monitor.interval(monitor.handle_at(i));
    std::string nodes;
    for (const ProcessId p : iv.node_set()) {
      nodes += 'p';
      nodes += std::to_string(p);
      nodes += ' ';
    }
    interval_table.new_row()
        .add_cell(iv.label())
        .add_cell(iv.size())
        .add_cell(iv.node_count())
        .add_cell(nodes);
  }
  interval_table.print(os);

  if (options.interaction_matrix && n >= 2) {
    os << "\n=== interaction types ===\n";
    std::vector<std::string> headers{"X \\ Y"};
    for (std::size_t i = 0; i < n; ++i) {
      headers.push_back(monitor.interval(monitor.handle_at(i)).label());
    }
    TextTable matrix(std::move(headers));
    for (std::size_t x = 0; x < n; ++x) {
      matrix.new_row().add_cell(monitor.interval(monitor.handle_at(x)).label());
      const EventCuts xc(monitor.timestamps(),
                         monitor.interval(monitor.handle_at(x)));
      for (std::size_t y = 0; y < n; ++y) {
        if (x == y) {
          matrix.add_cell(std::string("."));
          continue;
        }
        const EventCuts yc(monitor.timestamps(),
                           monitor.interval(monitor.handle_at(y)));
        QueryCost counter;
        matrix.add_cell(
            std::string(to_string(classify(relation_profile(xc, yc, counter)))));
      }
    }
    matrix.print(os);
  }

  if (options.headline != nullptr) {
    os << "\n=== pairs satisfying " << options.headline->to_string()
       << " ===\n";
    const auto pairs = monitor.find_pairs(*options.headline);
    TextTable pair_table({"X", "Y"});
    for (const auto& [hx, hy] : pairs) {
      pair_table.new_row()
          .add_cell(monitor.interval(hx).label())
          .add_cell(monitor.interval(hy).label());
    }
    pair_table.print(os);
    os << pairs.size() << " of " << n * (n - 1) << " ordered pairs\n";
  }
  (void)exec;
}

std::string report_to_string(const SyncMonitor& monitor,
                             const ReportOptions& options) {
  std::ostringstream oss;
  write_report(oss, monitor, options);
  return oss.str();
}

void write_online_report(std::ostream& os, const OnlineMonitor& monitor) {
  os << "=== online monitor health ===\n";
  TextTable health({"metric", "value"});
  health.new_row().add_cell(std::string("mode")).add_cell(std::string(
      monitor.degraded() ? "degraded (report feed)" : "direct"));
  // The rows come from the same health_metrics() list publish_metrics()
  // exports, so this table and the Prometheus/JSON exporters always agree.
  for (const OnlineMonitor::HealthMetric& m : monitor.health_metrics()) {
    health.new_row().add_cell(m.label).add_cell(m.value);
  }
  health.print(os);

  const auto missing = monitor.missing_reports();
  if (!missing.empty()) {
    os << "\n=== known-lost reports ===\n";
    TextTable lost({"event", "recoverable"});
    for (const EventId& e : missing) {
      std::string event = "p";
      event += std::to_string(e.process);
      event += ':';
      event += std::to_string(e.index);
      lost.new_row()
          .add_cell(std::move(event))
          .add_cell(std::string(monitor.is_crashed(e.process)
                                    ? "NO (process crashed)"
                                    : "yes (resync)"));
    }
    lost.print(os);
  }

  const auto crashed = monitor.crashed_processes();
  if (!crashed.empty()) {
    os << "\n=== crash watchdog ===\n";
    os << "crashed:";
    for (const ProcessId p : crashed) os << " p" << p;
    os << "\n";
    for (const std::string& label : monitor.doomed_actions()) {
      os << "doomed action: " << label
         << " (component events on a crashed process; it can never "
            "complete)\n";
    }
  }

  if (!monitor.waterfalls().empty()) {
    os << "\n=== detection-latency waterfalls ===\n";
    const std::vector<obs::Waterfall> falls(monitor.waterfalls().begin(),
                                            monitor.waterfalls().end());
    obs::write_waterfalls(os, falls);
  }
}

std::string online_report_to_string(const OnlineMonitor& monitor) {
  std::ostringstream oss;
  write_online_report(oss, monitor);
  return oss.str();
}

}  // namespace syncon
