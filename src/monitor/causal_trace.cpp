#include "monitor/causal_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "nonatomic/interval.hpp"
#include "obs/export.hpp"

namespace syncon::obs {

namespace {

/// FNV-1a, the deterministic hash behind trace ids.
std::uint64_t fnv1a(std::uint64_t seed, std::uint64_t value) {
  std::uint64_t h = seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string event_name(EventId e) {
  return "p" + std::to_string(e.process) + ":" + std::to_string(e.index);
}

/// Synthetic timeline: one step per topological position (offline
/// executions carry no wall time; determinism is what matters here).
constexpr std::uint64_t kStepUs = 10;

std::uint64_t synthetic_time(const Execution& exec, EventId e) {
  return (static_cast<std::uint64_t>(exec.topological_index(e)) + 1) *
         kStepUs;
}

}  // namespace

const CausalSpan* CausalTrace::find(std::uint64_t id) const {
  for (const CausalSpan& s : spans) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::uint64_t process_span_id(ProcessId p) {
  return (static_cast<std::uint64_t>(p) + 1) << 33;
}

std::uint64_t event_span_id(EventId e) {
  return (static_cast<std::uint64_t>(e.process + 1) << 32) | e.index;
}

std::uint64_t message_span_id(EventId send) {
  return event_span_id(send) | (1ull << 63);
}

CausalTrace build_causal_trace(const Execution& exec,
                               const Timestamps& stamps) {
  CausalTrace trace;

  std::uint64_t h = fnv1a(1469598103934665603ull, exec.process_count());
  h = fnv1a(h, exec.total_real_count());
  h = fnv1a(h, exec.messages().size());
  trace.trace_id = hex16(h) + hex16(fnv1a(h, 0x73796e636f6eull));

  std::uint64_t horizon = kStepUs;

  // One root span per process lane.
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    CausalSpan span;
    span.id = process_span_id(p);
    span.name = "process " + std::to_string(p);
    span.kind = "process";
    span.process = p;
    span.start_us = 0;
    trace.spans.push_back(std::move(span));
  }

  // Receives of each message, for message span extents.
  std::unordered_map<EventId, EventId> receive_of;
  for (const Message& m : exec.messages()) receive_of[m.source] = m.target;

  for (const EventId& e : exec.topological_order()) {
    const std::uint64_t t = synthetic_time(exec, e);
    horizon = std::max(horizon, t + kStepUs);
    CausalSpan span;
    span.id = event_span_id(e);
    span.parent = process_span_id(e.process);
    span.name = event_name(e);
    span.kind = "event";
    span.process = e.process;
    span.start_us = t;
    span.end_us = t + kStepUs / 2;
    span.attributes.emplace_back("event", event_name(e));
    // Follows-from edges derived from clock comparisons — the builder
    // proposes the structural predecessors (program order + message
    // sources), but an edge is emitted only if the vector clocks order
    // the endpoints. verify_causal_consistency checks the result against
    // the full clock order.
    if (e.index > 1) {
      const EventId pred{e.process, e.index - 1};
      if (stamps.lt(pred, e)) {
        span.follows_from.push_back(event_span_id(pred));
      }
    }
    for (const EventId& src : exec.incoming(e)) {
      if (stamps.lt(src, e)) {
        span.follows_from.push_back(event_span_id(src));
      }
    }
    trace.spans.push_back(std::move(span));
  }

  for (const Message& m : exec.messages()) {
    CausalSpan span;
    span.id = message_span_id(m.source);
    span.parent = event_span_id(m.source);
    span.name = "msg " + event_name(m.source) + " -> " +
                event_name(receive_of.at(m.source));
    span.kind = "message";
    span.process = m.source.process;
    span.start_us = synthetic_time(exec, m.source);
    span.end_us = synthetic_time(exec, receive_of.at(m.source));
    trace.spans.push_back(std::move(span));
  }

  for (CausalSpan& span : trace.spans) {
    if (span.kind == "process") span.end_us = horizon;
  }
  return trace;
}

void append_interval_spans(CausalTrace& trace, const Execution& exec,
                           std::span<const NonatomicEvent> intervals) {
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const NonatomicEvent& iv = intervals[i];
    CausalSpan span;
    span.id = (0x2ull << 60) | (i + 1);
    span.name = iv.label().empty() ? "interval " + std::to_string(i)
                                   : iv.label();
    span.kind = "interval";
    span.process = iv.node_set().empty() ? CausalSpan::kNoLane
                                         : iv.node_set().front();
    std::uint64_t lo = ~0ull, hi = 0;
    for (const EventId& e : iv.events()) {
      const std::uint64_t t = synthetic_time(exec, e);
      lo = std::min(lo, t);
      hi = std::max(hi, t + kStepUs / 2);
      // The interval "contains" its component events causally.
      span.follows_from.push_back(event_span_id(e));
    }
    span.start_us = lo;
    span.end_us = hi;
    span.attributes.emplace_back("events", std::to_string(iv.size()));
    trace.spans.push_back(std::move(span));
  }
}

void append_monitor_spans(CausalTrace& trace,
                          std::span<const Waterfall> waterfalls) {
  for (std::size_t i = 0; i < waterfalls.size(); ++i) {
    const Waterfall& w = waterfalls[i];
    const std::uint64_t id = (0x3ull << 60) | (i + 1);
    CausalSpan verdict;
    verdict.id = id;
    verdict.name = w.x + "|" + w.y;
    verdict.kind = "verdict";
    verdict.process = CausalSpan::kNoLane;
    verdict.start_us = w.start_us;
    verdict.end_us = w.end_us();
    verdict.attributes.emplace_back("holds", w.holds ? "true" : "false");
    verdict.attributes.emplace_back("confidence",
                                    w.definite ? "definite" : "pending-gap");
    verdict.attributes.emplace_back("fire", std::to_string(w.fire_index));
    verdict.attributes.emplace_back("clock_domain", "wall");
    trace.spans.push_back(std::move(verdict));
    for (std::size_t s = 0; s < w.stages.size(); ++s) {
      const StageSpan& stage = w.stages[s];
      CausalSpan span;
      span.id = (0x4ull << 60) | ((i + 1) << 8) | s;
      span.parent = id;
      span.name = stage.stage;
      span.kind = "stage";
      span.process = CausalSpan::kNoLane;
      span.start_us = stage.start_us;
      span.end_us = stage.end_us();
      span.attributes.emplace_back("clock_domain", "wall");
      trace.spans.push_back(std::move(span));
    }
  }
}

void append_flight_spans(CausalTrace& trace,
                         const std::vector<FlightRecord>& records) {
  for (const FlightRecord& r : records) {
    const char* kind = nullptr;
    std::string name;
    switch (r.kind) {
      case FlightKind::kResyncRequest:
        kind = "resync";
        name = "resync/request";
        break;
      case FlightKind::kResyncServe:
        kind = "resync";
        name = "resync/serve";
        break;
      case FlightKind::kCompact:
        kind = "compact";
        name = "compact";
        break;
      case FlightKind::kWalSync:
        kind = "wal";
        name = "wal/sync";
        break;
      case FlightKind::kWalRotate:
        kind = "wal";
        name = "wal/rotate";
        break;
      case FlightKind::kSnapshot:
        kind = "wal";
        name = "wal/snapshot";
        break;
      case FlightKind::kQuarantine:
        kind = "quarantine";
        name = "quarantine";
        break;
      case FlightKind::kCrash:
        kind = "crash";
        name = "crash";
        break;
      case FlightKind::kRecovery:
        kind = "recovery";
        name = "recovery";
        break;
      case FlightKind::kGapOpen:
        kind = "gap";
        name = "gap/open";
        break;
      case FlightKind::kGapClose:
        kind = "gap";
        name = "gap/close";
        break;
      default:
        break;  // deliveries & co. would drown the trace — skip
    }
    if (kind == nullptr) continue;
    CausalSpan span;
    span.id = (0x5ull << 60) | (r.seq + 1);
    span.name = std::move(name);
    span.kind = kind;
    span.process = r.process;
    span.start_us = r.t_us;
    span.end_us = r.t_us;
    span.attributes.emplace_back("a", std::to_string(r.a));
    span.attributes.emplace_back("b", std::to_string(r.b));
    span.attributes.emplace_back("clock_domain", "wall");
    trace.spans.push_back(std::move(span));
  }
}

bool verify_causal_consistency(const CausalTrace& trace, const Execution& exec,
                               const Timestamps& stamps, std::string* why) {
  const auto fail = [&](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  // Dense index per real event, in topological order (so reachability can
  // be propagated in one forward pass).
  const std::vector<EventId>& order = exec.topological_order();
  std::unordered_map<std::uint64_t, std::size_t> dense;
  dense.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    dense.emplace(event_span_id(order[i]), i);
  }

  // Collect the follows-from adjacency over event spans.
  std::vector<std::vector<std::size_t>> preds(order.size());
  std::size_t event_spans = 0;
  for (const CausalSpan& span : trace.spans) {
    if (span.kind != "event") continue;
    const auto it = dense.find(span.id);
    if (it == dense.end()) {
      return fail("event span " + span.name +
                  " does not correspond to an event of the execution");
    }
    ++event_spans;
    for (const std::uint64_t f : span.follows_from) {
      const auto fit = dense.find(f);
      if (fit == dense.end()) {
        return fail("span " + span.name +
                    " has a follows-from link to a non-event span");
      }
      preds[it->second].push_back(fit->second);
    }
  }
  if (event_spans != order.size()) {
    return fail("trace has " + std::to_string(event_spans) +
                " event spans; execution has " +
                std::to_string(order.size()) + " events");
  }

  // Reachability through the links, propagated along the topological order.
  const std::size_t words = (order.size() + 63) / 64;
  std::vector<std::uint64_t> reach(order.size() * words, 0);
  const auto set_bit = [&](std::size_t row, std::size_t bit) {
    reach[row * words + bit / 64] |= 1ull << (bit % 64);
  };
  const auto get_bit = [&](std::size_t row, std::size_t bit) {
    return (reach[row * words + bit / 64] >> (bit % 64)) & 1u;
  };
  for (std::size_t v = 0; v < order.size(); ++v) {
    for (const std::size_t u : preds[v]) {
      if (u >= v) {
        return fail("follows-from link from " + event_name(order[v]) +
                    " runs against the topological order");
      }
      set_bit(v, u);
      for (std::size_t w = 0; w < words; ++w) {
        reach[v * words + w] |= reach[u * words + w];
      }
    }
  }

  // The property: u ≺ v (clocks) ⟺ u reachable from v's link closure.
  for (std::size_t v = 0; v < order.size(); ++v) {
    for (std::size_t u = 0; u < order.size(); ++u) {
      if (u == v) continue;
      const bool linked = get_bit(v, u);
      const bool before = stamps.lt(order[u], order[v]);
      if (linked != before) {
        return fail("events " + event_name(order[u]) + " and " +
                    event_name(order[v]) + ": clock order says " +
                    (before ? "ordered" : "unordered") +
                    ", span links say " + (linked ? "ordered" : "unordered"));
      }
    }
  }
  return true;
}

std::size_t count_spans_of_kind(const CausalTrace& trace,
                                std::string_view kind) {
  std::size_t n = 0;
  for (const CausalSpan& s : trace.spans) {
    if (s.kind == kind) ++n;
  }
  return n;
}

void write_causal_chrome_trace(std::ostream& os, const CausalTrace& trace) {
  const auto tid_of = [](const CausalSpan& s) -> int {
    if (s.kind == "process") return 0;
    if (s.kind == "event") return 1;
    if (s.kind == "message") return 2;
    if (s.kind == "interval") return 3;
    if (s.kind == "verdict") return 4;
    if (s.kind == "stage") return 5;
    return 6;
  };
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  std::uint64_t flow = 0;
  for (const CausalSpan& s : trace.spans) {
    const std::uint64_t pid =
        s.process == CausalSpan::kNoLane ? 9999 : s.process;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"name\": \"" << json_escape(s.name) << "\", \"cat\": \""
       << json_escape(s.kind) << "\", \"ph\": \"X\", \"ts\": " << s.start_us
       << ", \"dur\": " << (s.end_us - s.start_us) << ", \"pid\": " << pid
       << ", \"tid\": " << tid_of(s) << "}";
    for (const std::uint64_t f : s.follows_from) {
      const CausalSpan* src = trace.find(f);
      if (src == nullptr) continue;
      const std::uint64_t src_pid =
          src->process == CausalSpan::kNoLane ? 9999 : src->process;
      ++flow;
      os << ",\n  {\"name\": \"follows\", \"cat\": \"follows\", \"ph\": "
            "\"s\", \"id\": "
         << flow << ", \"ts\": " << src->end_us << ", \"pid\": " << src_pid
         << ", \"tid\": " << tid_of(*src) << "}";
      os << ",\n  {\"name\": \"follows\", \"cat\": \"follows\", \"ph\": "
            "\"f\", \"bp\": \"e\", \"id\": "
         << flow << ", \"ts\": " << s.start_us << ", \"pid\": " << pid
         << ", \"tid\": " << tid_of(s) << "}";
    }
  }
  os << (first ? "" : "\n") << "]}\n";
}

void write_causal_otlp(std::ostream& os, const CausalTrace& trace) {
  os << "{\n  \"resourceSpans\": [{\n"
        "    \"resource\": {\"attributes\": [{\"key\": \"service.name\", "
        "\"value\": {\"stringValue\": \"syncon\"}}]},\n"
        "    \"scopeSpans\": [{\n"
        "      \"scope\": {\"name\": \"syncon.causal\"},\n"
        "      \"spans\": [";
  bool first = true;
  for (const CausalSpan& s : trace.spans) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "        {\"traceId\": \"" << trace.trace_id << "\", \"spanId\": \""
       << hex16(s.id) << "\", \"parentSpanId\": \""
       << (s.parent == 0 ? std::string() : hex16(s.parent))
       << "\", \"name\": \"" << json_escape(s.name)
       << "\", \"kind\": 1, \"startTimeUnixNano\": \"" << s.start_us * 1000
       << "\", \"endTimeUnixNano\": \"" << s.end_us * 1000 << "\"";
    os << ", \"attributes\": [{\"key\": \"syncon.kind\", \"value\": "
          "{\"stringValue\": \""
       << json_escape(s.kind) << "\"}}";
    for (const auto& [key, value] : s.attributes) {
      os << ", {\"key\": \"syncon." << json_escape(key)
         << "\", \"value\": {\"stringValue\": \"" << json_escape(value)
         << "\"}}";
    }
    os << "]";
    if (!s.follows_from.empty()) {
      os << ", \"links\": [";
      bool first_link = true;
      for (const std::uint64_t f : s.follows_from) {
        os << (first_link ? "" : ", ");
        first_link = false;
        os << "{\"traceId\": \"" << trace.trace_id << "\", \"spanId\": \""
           << hex16(f) << "\"}";
      }
      os << "]";
    }
    os << "}";
  }
  os << (first ? "" : "\n      ") << "]\n    }]\n  }]\n}\n";
}

}  // namespace syncon::obs
