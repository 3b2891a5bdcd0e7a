// Exporters for the telemetry subsystem (DESIGN.md §3.8):
//  - Prometheus text exposition (scrape endpoint / file drop),
//  - JSON snapshots in the BENCH_*.json trajectory format
//    (scripts/ci_bench_smoke.sh assembles per-binary snapshots into
//    BENCH_smoke.json),
//  - Chrome trace-event JSON for the span ring (loadable in Perfetto or
//    chrome://tracing),
//  - a plain-text per-phase span summary table for bench output.
// Both metric exporters render the same MetricsSnapshot, so their values
// can never drift apart.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace syncon::obs {

/// Maps a metric name onto the Prometheus charset: [a-zA-Z0-9_:], with any
/// '{...}' label suffix kept verbatim ("/" and "." become "_"). Edge cases
/// normalize instead of producing invalid exposition: an empty or label-only
/// name gets a "_" base, a digit-leading base is prefixed with "_", an
/// unterminated label suffix is closed, and a bare "{}" is dropped.
std::string sanitize_metric_name(std::string_view name);

/// JSON string escaping used by every obs exporter. Escapes quotes,
/// backslashes, all control bytes, and every non-ASCII byte (as \u00XX of
/// the raw byte value), so the output is always valid ASCII JSON no matter
/// what bytes a run label or label value carries.
std::string json_escape(std::string_view s);

/// Prometheus text exposition format, one # TYPE line per metric family.
/// Histograms render as cumulative <name>_bucket{le=...} + _sum + _count.
void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot);

/// JSON snapshot ("syncon-telemetry-v1"): counters/gauges by name, and for
/// each histogram count/sum/min/max/mean/p50/p95/p99 plus the raw buckets.
/// `run` labels the producing binary or experiment.
void write_json(std::ostream& os, const MetricsSnapshot& snapshot,
                std::string_view run = "");

/// Chrome trace-event JSON ("X" complete events) of the ring's retained
/// kSpan records, oldest first: ts = b, dur = t_us - b, tid = process.
void write_chrome_trace(std::ostream& os, const FlightRecorder& ring);

/// Per-phase span summary as an aligned text table (src/support/table).
void write_span_summary(std::ostream& os, const FlightRecorder& ring);

std::string prometheus_to_string(const MetricsSnapshot& snapshot);
std::string json_to_string(const MetricsSnapshot& snapshot,
                           std::string_view run = "");

}  // namespace syncon::obs
