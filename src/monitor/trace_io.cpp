#include "monitor/trace_io.hpp"

#include <charconv>
#include <optional>
#include <sstream>
#include <string_view>
#include <system_error>

#include "support/contracts.hpp"

namespace syncon {

namespace {

constexpr const char* kTraceHeader = "syncon-trace 1";
constexpr const char* kIntervalHeader = "syncon-intervals 1";

std::string event_ref(const EventId& e) {
  return std::to_string(e.process) + ":" + std::to_string(e.index);
}

// The one number parser of both formats: ASCII digits only, the value fits
// the target type, and the whole token is consumed, so no '+', whitespace,
// trailing junk or wrapped value reads as a different valid number. A signed
// target (a time annotation) also takes a leading '-', so a negative time
// written by write_timed_trace reads back.
template <typename Int>
bool parse_decimal(std::string_view token, Int& value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc{} && ptr == end;
}

EventId parse_event_ref(const std::string& token, std::size_t line_no) {
  const auto colon = token.find(':');
  EventId e;
  if (colon == std::string::npos ||
      !parse_decimal(std::string_view(token).substr(0, colon), e.process) ||
      !parse_decimal(std::string_view(token).substr(colon + 1), e.index)) {
    throw TraceFormatError(line_no, "malformed event reference", token);
  }
  return e;
}

// Reads content lines (skipping blanks and comments) while tracking the
// 1-based physical line number, so every parse error can name its line.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  // Next content line; false at EOF.
  bool next(std::string& line) {
    while (std::getline(is_, line)) {
      ++number_;
      const auto pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos) continue;
      if (line[pos] == '#') continue;
      return true;
    }
    ++number_;  // the (virtual) line after the last — for EOF errors
    return false;
  }

  std::size_t number() const { return number_; }

 private:
  std::istream& is_;
  std::size_t number_ = 0;
};

// The record writer of both trace formats; `times` adds the `@<µs>`
// annotation of the timed one.
void write_records(std::ostream& os, const Execution& exec,
                   const PhysicalTimes* times) {
  os << kTraceHeader << '\n';
  os << "processes " << exec.process_count() << '\n';
  for (const EventId& e : exec.topological_order()) {
    os << "e " << e.process;
    if (times != nullptr) os << " @" << times->at(e);
    const auto sources = exec.incoming(e);
    if (!sources.empty()) {
      os << " <";
      for (const EventId& src : sources) os << ' ' << event_ref(src);
    }
    os << '\n';
  }
}

// What the record loop read: the execution, and each process's time
// annotations when every record carried one.
struct ParsedTrace {
  Execution exec;
  std::optional<std::vector<std::vector<TimePoint>>> times;
  std::size_t end_line;
};

// The record loop of both trace readers. With `timed`, an event record may
// carry one `@<µs>` annotation; without, the only token after the process
// id is '<', as the untimed format has it.
ParsedTrace read_records(std::istream& is, bool timed) {
  LineReader reader(is);
  std::string line;
  if (!reader.next(line) || line != kTraceHeader) {
    throw TraceFormatError(reader.number(), "missing 'syncon-trace 1' header",
                           line);
  }
  if (!reader.next(line)) {
    throw TraceFormatError(reader.number(), "missing 'processes' record");
  }
  std::istringstream header(line);
  std::string keyword;
  std::size_t p_count = 0;
  header >> keyword >> p_count;
  if (keyword != "processes" || p_count == 0) {
    throw TraceFormatError(reader.number(), "malformed 'processes' record",
                           line);
  }

  ExecutionBuilder builder(p_count);
  std::vector<std::vector<TimePoint>> times(p_count);
  bool any_timed = false, any_untimed = false;
  while (reader.next(line)) {
    std::istringstream rec(line);
    std::string kind;
    rec >> kind;
    if (kind != "e") {
      throw TraceFormatError(reader.number(), "unknown record kind", kind);
    }
    unsigned long p_raw = p_count;
    rec >> p_raw;
    if (rec.fail() || p_raw >= p_count) {
      throw TraceFormatError(reader.number(),
                             "bad process id (trace has " +
                                 std::to_string(p_count) + " processes)",
                             line);
    }
    const auto p = static_cast<ProcessId>(p_raw);
    std::string token;
    bool stamped = false;
    std::vector<EventId> sources;
    while (rec >> token) {
      if (timed && token[0] == '@') {
        TimePoint t = 0;
        if (!parse_decimal(std::string_view(token).substr(1), t)) {
          throw TraceFormatError(reader.number(), "bad time annotation",
                                 token);
        }
        times[p].push_back(t);
        stamped = true;
      } else if (token == "<") {
        while (rec >> token) {
          sources.push_back(parse_event_ref(token, reader.number()));
        }
        if (sources.empty()) {
          throw TraceFormatError(reader.number(), "receive without sources",
                                 line);
        }
      } else {
        throw TraceFormatError(reader.number(),
                               timed ? "unexpected token"
                                     : "expected '<' before sources",
                               token);
      }
    }
    (stamped ? any_timed : any_untimed) = true;
    try {
      if (sources.empty()) {
        builder.local(p);
      } else {
        builder.receive_from(p, sources);
      }
    } catch (const ContractViolation& e) {
      throw TraceFormatError(reader.number(),
                             std::string("invalid receive: ") + e.what());
    }
  }
  if (any_timed && any_untimed) {
    throw TraceFormatError(reader.number(),
                           "mixed timed and untimed event records");
  }
  ParsedTrace out{builder.build(), std::nullopt, reader.number()};
  if (any_timed) out.times = std::move(times);
  return out;
}

}  // namespace

void write_trace(std::ostream& os, const Execution& exec) {
  write_records(os, exec, nullptr);
}

std::string trace_to_string(const Execution& exec) {
  std::ostringstream oss;
  write_trace(oss, exec);
  return oss.str();
}

Execution trace_from_string(const std::string& text) {
  std::istringstream iss(text);
  return read_trace(iss);
}

void write_intervals(std::ostream& os,
                     const std::vector<NonatomicEvent>& intervals) {
  os << kIntervalHeader << '\n';
  for (const NonatomicEvent& iv : intervals) {
    SYNCON_REQUIRE(
        iv.label().find_first_of(" \t\n") == std::string::npos &&
            !iv.label().empty(),
        "interval labels must be non-empty and whitespace-free to serialize");
    os << "i " << iv.label();
    for (const EventId& e : iv.events()) os << ' ' << event_ref(e);
    os << '\n';
  }
}

std::vector<NonatomicEvent> read_intervals(std::istream& is,
                                           const Execution& exec) {
  LineReader reader(is);
  std::string line;
  if (!reader.next(line) || line != kIntervalHeader) {
    throw TraceFormatError(reader.number(),
                           "missing 'syncon-intervals 1' header", line);
  }
  std::vector<NonatomicEvent> out;
  while (reader.next(line)) {
    std::istringstream rec(line);
    std::string kind, label, token;
    rec >> kind >> label;
    if (kind != "i" || label.empty()) {
      throw TraceFormatError(reader.number(), "unknown record kind", kind);
    }
    std::vector<EventId> events;
    while (rec >> token) {
      const EventId e = parse_event_ref(token, reader.number());
      if (!exec.is_real(e)) {
        throw TraceFormatError(reader.number(),
                               "interval references unknown event", token);
      }
      events.push_back(e);
    }
    if (events.empty()) {
      throw TraceFormatError(reader.number(), "empty interval '" + label + "'");
    }
    out.emplace_back(exec, std::move(events), std::move(label));
  }
  return out;
}

void write_timed_trace(std::ostream& os, const Execution& exec,
                       const PhysicalTimes& times) {
  SYNCON_REQUIRE(&times.execution() == &exec,
                 "times belong to a different execution");
  write_records(os, exec, &times);
}

Execution read_trace(std::istream& is) {
  return read_records(is, false).exec;
}

TimedTrace read_timed_trace(std::istream& is) {
  ParsedTrace parsed = read_records(is, true);
  TimedTrace out;
  auto exec = std::make_shared<const Execution>(std::move(parsed.exec));
  if (parsed.times) {
    try {
      out.times = std::make_shared<const PhysicalTimes>(
          *exec, std::move(*parsed.times));
    } catch (const ContractViolation& e) {
      throw TraceFormatError(parsed.end_line,
                             std::string("invalid timeline: ") + e.what());
    }
  }
  out.execution = std::move(exec);
  return out;
}

void write_dot(std::ostream& os, const Execution& exec,
               const std::vector<NonatomicEvent>& highlight) {
  // A small qualitative palette for highlighted interval groups.
  static const char* kColors[] = {"#8dd3c7", "#fdb462", "#bebada",
                                  "#fb8072", "#80b1d3", "#b3de69"};
  auto color_of = [&](EventId e) -> const char* {
    for (std::size_t i = 0; i < highlight.size(); ++i) {
      if (highlight[i].contains(e)) {
        return kColors[i % (sizeof(kColors) / sizeof(kColors[0]))];
      }
    }
    return nullptr;
  };
  auto node_name = [](EventId e) {
    std::string name = "e";
    name += std::to_string(e.process);
    name += '_';
    name += std::to_string(e.index);
    return name;
  };

  os << "digraph execution {\n  rankdir=LR;\n  node [shape=circle, "
        "fontsize=10];\n";
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    os << "  subgraph cluster_p" << p << " {\n    label=\"p" << p
       << "\";\n    color=gray;\n";
    for (EventIndex k = 1; k <= exec.real_count(p); ++k) {
      const EventId e{p, k};
      os << "    " << node_name(e) << " [label=\"" << p << "." << k << "\"";
      if (const char* c = color_of(e)) {
        os << ", style=filled, fillcolor=\"" << c << "\"";
      }
      os << "];\n";
    }
    os << "  }\n";
    for (EventIndex k = 1; k + 1 <= exec.real_count(p); ++k) {
      os << "  " << node_name({p, k}) << " -> "
         << node_name({p, static_cast<EventIndex>(k + 1)}) << ";\n";
    }
  }
  for (const Message& msg : exec.messages()) {
    os << "  " << node_name(msg.source) << " -> " << node_name(msg.target)
       << " [style=dashed, color=blue];\n";
  }
  os << "}\n";
}

}  // namespace syncon
