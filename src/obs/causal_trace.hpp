// Causal trace export (DESIGN.md §3.13): render a monitored run as an
// OpenTelemetry-shaped distributed trace. The execution is already a
// timestamped partial order, so the mapping is direct —
//
//   process p       → one root span per process lane
//   event (p, i)    → child span of p's process span
//   message f → e   → child span of the send event, ending at the receive
//   interval X      → span over [least, greatest] component event times
//   verdict firing  → span tree of its latency waterfall stages
//   flight records  → resync / compact / recovery / quarantine marker spans
//
// with happens-before rendered as OTel "follows-from" links: for every
// causal edge (local predecessor, message source) the link is emitted iff
// the vector clocks actually order the two events — the links are *derived
// from clock comparisons*, not from the builder's structural knowledge, so
// verify_causal_consistency can property-check span reachability against
// the clock order bit for bit.
//
// Export forms: the existing Chrome trace-event JSON (Perfetto /
// chrome://tracing; follows-from rendered as flow arrows) and an OTLP-style
// JSON document (resourceSpans → scopeSpans → spans with hex ids + links).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "model/execution.hpp"
#include "model/timestamps.hpp"
#include "model/types.hpp"
#include "obs/flight.hpp"
#include "obs/latency.hpp"

namespace syncon {
class NonatomicEvent;
}  // namespace syncon

namespace syncon::obs {

/// One span. Ids are deterministic functions of what the span denotes, so
/// the same run always exports the same trace bit for bit.
struct CausalSpan {
  std::uint64_t id = 0;       // nonzero
  std::uint64_t parent = 0;   // 0 = root
  std::string name;
  std::string kind;           // process|event|message|interval|verdict|stage|…
  std::uint32_t process = 0;  // owning lane (kNoLane for cross-cutting spans)
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  std::vector<std::uint64_t> follows_from;  // span ids, happens-before links
  std::vector<std::pair<std::string, std::string>> attributes;

  static constexpr std::uint32_t kNoLane = 0xffffffffu;
};

struct CausalTrace {
  std::string trace_id;  // 32 hex digits, deterministic per run shape
  std::vector<CausalSpan> spans;

  const CausalSpan* find(std::uint64_t id) const;
};

/// Deterministic span ids (exposed for tests and cross-referencing).
std::uint64_t process_span_id(ProcessId p);
std::uint64_t event_span_id(EventId e);
std::uint64_t message_span_id(EventId send);

/// Maps an execution and its vector clocks into the span tree described
/// above. Follows-from edges are emitted only where the clocks order the
/// endpoints (always, for a consistent stamping — that is the property).
/// Events carry no wall time in an offline Execution, so spans are laid out
/// on a synthetic timeline, 10 µs per topological position.
CausalTrace build_causal_trace(const Execution& exec, const Timestamps& stamps);

/// Adds one span per interval, covering its component events' span times.
void append_interval_spans(CausalTrace& trace, const Execution& exec,
                           std::span<const NonatomicEvent> intervals);

/// Adds one span tree per verdict waterfall (monitor wall-clock domain;
/// annotated clock_domain=wall so consumers don't mix the timelines).
void append_monitor_spans(CausalTrace& trace,
                          std::span<const Waterfall> waterfalls);

/// Adds marker spans for the interesting flight records: resync request /
/// serve, compaction, WAL activity, quarantine, crash, recovery.
void append_flight_spans(CausalTrace& trace,
                         const std::vector<FlightRecord>& records);

/// Property check: over the event spans, reachability through parent +
/// follows-from edges must coincide exactly with the strict clock order
/// (u ≺ v ⟺ v reachable from u). Returns false and fills `why` (when
/// non-null) on the first disagreement.
bool verify_causal_consistency(const CausalTrace& trace, const Execution& exec,
                               const Timestamps& stamps,
                               std::string* why = nullptr);

/// Spans of a given kind (e.g. counting "resync" spans in CI).
std::size_t count_spans_of_kind(const CausalTrace& trace,
                                std::string_view kind);

/// Chrome trace-event JSON: "X" complete events per span (pid = lane,
/// tid = span depth), follows-from as flow ("s"/"f") arrows.
void write_causal_chrome_trace(std::ostream& os, const CausalTrace& trace);

/// OTLP-style JSON (resourceSpans → scopeSpans → spans), hex-encoded ids,
/// links for the follows-from edges, times in ns.
void write_causal_otlp(std::ostream& os, const CausalTrace& trace);

}  // namespace syncon::obs
