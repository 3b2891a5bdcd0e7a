#include "obs/latency.hpp"

#include <array>
#include <ostream>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "support/table.hpp"

namespace syncon::obs {

namespace {

constexpr std::array<const char*, 5> kDetectStages = {
    "observe", "track", "gap_wait", "evaluate", "fire"};

}  // namespace

bool Waterfall::monotone() const {
  std::uint64_t cursor = start_us;
  for (const StageSpan& s : stages) {
    if (s.start_us != cursor) return false;
    cursor = s.end_us();  // duration_us is unsigned: never runs backwards
  }
  return true;
}

std::span<const char* const> detect_stages() { return kDetectStages; }

void record_stage_latency(std::string_view stage, std::uint64_t us) {
  if (!enabled()) return;
  Histogram& h = MetricRegistry::global().histogram(
      "syncon_detect_latency_" + std::string(stage) + "_us",
      HistogramSpec::exponential(1.0, 1048576.0));
  h.record(static_cast<double>(us));
}

void write_waterfalls(std::ostream& os, std::span<const Waterfall> falls) {
  TextTable table({"pair", "verdict", "fire", "stage", "start µs", "µs"});
  for (const Waterfall& w : falls) {
    const std::string pair = w.x + "|" + w.y;
    const std::string verdict = std::string(w.holds ? "holds" : "fails") +
                                (w.definite ? " (definite)" : " (pending)");
    std::string fire = "#";
    fire += std::to_string(w.fire_index);
    for (std::size_t i = 0; i < w.stages.size(); ++i) {
      const StageSpan& s = w.stages[i];
      table.new_row()
          .add_cell(i == 0 ? pair : std::string())
          .add_cell(i == 0 ? verdict : std::string())
          .add_cell(i == 0 ? fire : std::string())
          .add_cell(s.stage)
          .add_cell(with_thousands(s.start_us))
          .add_cell(with_thousands(s.duration_us));
    }
    table.new_row()
        .add_cell(std::string())
        .add_cell(std::string())
        .add_cell(std::string())
        .add_cell(std::string("= total"))
        .add_cell(with_thousands(w.start_us))
        .add_cell(with_thousands(w.total_us()));
  }
  table.print(os);
}

void write_waterfalls_json(std::ostream& os, std::span<const Waterfall> falls) {
  os << "{\n  \"schema\": \"syncon-waterfalls-v1\",\n  \"waterfalls\": [";
  bool first = true;
  for (const Waterfall& w : falls) {
    os << (first ? "\n" : ",\n");
    os << "    {\"x\": \"" << w.x << "\", \"y\": \"" << w.y
       << "\", \"holds\": " << (w.holds ? "true" : "false")
       << ", \"definite\": " << (w.definite ? "true" : "false")
       << ", \"fire\": " << w.fire_index << ", \"start_us\": " << w.start_us
       << ", \"total_us\": " << w.total_us()
       << ", \"monotone\": " << (w.monotone() ? "true" : "false")
       << ", \"stages\": [";
    bool first_stage = true;
    for (const StageSpan& s : w.stages) {
      os << (first_stage ? "" : ", ");
      os << "{\"stage\": \"" << s.stage << "\", \"start_us\": " << s.start_us
         << ", \"duration_us\": " << s.duration_us << "}";
      first_stage = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

}  // namespace syncon::obs
