#include "obs/export.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <utility>

#include "support/table.hpp"

namespace syncon::obs {

namespace {

/// Shortest round-tripping decimal rendering of a double ("%.17g" trimmed
/// by retrying shorter precisions first).
std::string format_double(double v) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Splits "base{labels}" into its two parts ("" labels when absent).
std::pair<std::string_view, std::string_view> split_labels(
    std::string_view name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  std::string_view labels = name.substr(brace);
  labels.remove_prefix(1);  // '{'
  if (!labels.empty() && labels.back() == '}') labels.remove_suffix(1);
  return {name.substr(0, brace), labels};
}

const char* type_name(MetricsSnapshot::Kind kind) {
  switch (kind) {
    case MetricsSnapshot::Kind::Counter: return "counter";
    case MetricsSnapshot::Kind::Gauge: return "gauge";
    case MetricsSnapshot::Kind::Histogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        // Control bytes are invalid in JSON strings; bytes >= 0x7f are
        // escaped too (as the raw byte value) so a run label carrying
        // non-UTF-8 garbage still yields valid ASCII JSON.
        const unsigned byte = static_cast<unsigned char>(c);
        if (byte < 0x20 || byte >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          out += buf;
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

std::string sanitize_metric_name(std::string_view name) {
  const auto [base, labels] = split_labels(name);
  std::string out;
  out.reserve(name.size() + 1);
  // A name may not be empty or start with a digit (digits map to
  // themselves below).
  if (base.empty() || (base[0] >= '0' && base[0] <= '9')) out += '_';
  for (const char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  return out;
}

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  std::string last_typed_base;
  for (const MetricsSnapshot::Entry& e : snapshot.entries) {
    const std::string sanitized = sanitize_metric_name(e.name);
    const auto [base_sv, labels_sv] = split_labels(sanitized);
    const std::string base(base_sv);
    const std::string labels(labels_sv);
    if (base != last_typed_base) {
      os << "# TYPE " << base << " " << type_name(e.kind) << "\n";
      last_typed_base = base;
    }
    switch (e.kind) {
      case MetricsSnapshot::Kind::Counter:
        os << sanitized << " " << e.counter_value << "\n";
        break;
      case MetricsSnapshot::Kind::Gauge:
        os << sanitized << " " << e.gauge_value << "\n";
        break;
      case MetricsSnapshot::Kind::Histogram: {
        const HistogramSnapshot& h = *e.histogram;
        const std::string label_prefix =
            labels.empty() ? std::string() : labels + ",";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
          cumulative += h.counts[b];
          const std::string le =
              b == h.bounds.size() ? "+Inf" : format_double(h.bounds[b]);
          os << base << "_bucket{" << label_prefix << "le=\"" << le << "\"} "
             << cumulative << "\n";
        }
        os << base << "_sum" << (labels.empty() ? "" : "{" + labels + "}")
           << " " << format_double(h.sum) << "\n";
        os << base << "_count" << (labels.empty() ? "" : "{" + labels + "}")
           << " " << h.count << "\n";
        break;
      }
    }
  }
}

void write_json(std::ostream& os, const MetricsSnapshot& snapshot,
                std::string_view run) {
  os << "{\n  \"schema\": \"syncon-telemetry-v1\",\n";
  os << "  \"run\": \"" << json_escape(run) << "\",\n";

  const auto write_section = [&](const char* section,
                                 MetricsSnapshot::Kind kind) {
    os << "  \"" << section << "\": {";
    bool first = true;
    for (const MetricsSnapshot::Entry& e : snapshot.entries) {
      if (e.kind != kind) continue;
      os << (first ? "\n" : ",\n") << "    \"" << json_escape(e.name)
         << "\": ";
      if (kind == MetricsSnapshot::Kind::Counter) {
        os << e.counter_value;
      } else {
        os << e.gauge_value;
      }
      first = false;
    }
    os << (first ? "" : "\n  ") << "}";
  };

  write_section("counters", MetricsSnapshot::Kind::Counter);
  os << ",\n";
  write_section("gauges", MetricsSnapshot::Kind::Gauge);
  os << ",\n  \"histograms\": {";
  bool first = true;
  for (const MetricsSnapshot::Entry& e : snapshot.entries) {
    if (e.kind != MetricsSnapshot::Kind::Histogram) continue;
    const HistogramSnapshot& h = *e.histogram;
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(e.name)
       << "\": {";
    os << "\"count\": " << h.count << ", \"sum\": " << format_double(h.sum)
       << ", \"min\": " << format_double(h.min)
       << ", \"max\": " << format_double(h.max)
       << ", \"mean\": " << format_double(h.mean());
    const std::pair<const char*, double> quantiles[] = {
        {"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}};
    for (const auto& [label, q] : quantiles) {
      os << ", \"" << label
         << "\": " << format_double(h.count == 0 ? 0.0 : h.quantile(q));
    }
    os << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b != 0) os << ", ";
      os << "{\"le\": "
         << (b == h.bounds.size() ? std::string("\"+Inf\"")
                                  : format_double(h.bounds[b]))
         << ", \"count\": " << h.counts[b] << "}";
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

void write_chrome_trace(std::ostream& os, const FlightRecorder& ring) {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const FlightRecord& r : ring.dump()) {
    if (r.kind != FlightKind::kSpan) continue;
    os << (first ? "\n" : ",\n");
    os << "  {\"name\": \"" << json_escape(span_name(r))
       << "\", \"cat\": \"syncon\", \"ph\": \"X\", \"ts\": " << r.b
       << ", \"dur\": " << r.t_us - r.b << ", \"pid\": 0, \"tid\": "
       << r.process << "}";
    first = false;
  }
  os << (first ? "" : "\n") << "]}\n";
}

void write_span_summary(std::ostream& os, const FlightRecorder& ring) {
  TextTable table({"span", "count", "total µs", "mean µs", "max µs"});
  for (const SpanStats& s : aggregate_spans(ring)) {
    table.new_row()
        .add_cell(s.name)
        .add_cell(s.count)
        .add_cell(with_thousands(s.total_us))
        .add_cell(s.mean_us(), 1)
        .add_cell(with_thousands(s.max_us));
  }
  table.print(os);
}

std::string prometheus_to_string(const MetricsSnapshot& snapshot) {
  std::ostringstream oss;
  write_prometheus(oss, snapshot);
  return oss.str();
}

std::string json_to_string(const MetricsSnapshot& snapshot,
                           std::string_view run) {
  std::ostringstream oss;
  write_json(oss, snapshot, run);
  return oss.str();
}

}  // namespace syncon::obs
