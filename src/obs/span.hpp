// Span tracing (DESIGN.md §3.8): SYNCON_SPAN("phase/name") opens an RAII
// span whose completion is written as one FlightKind::kSpan record into the
// span ring, FlightRecorder::spans() (obs/flight.hpp). The ring is exported
// as Chrome trace-event JSON (obs/export.hpp), which Perfetto and
// chrome://tracing load directly.
//
// Cost model: with telemetry disabled (the default) a SpanGuard is one
// relaxed load and a branch — no clock read, no allocation, no lock. With
// it enabled, each completed span takes two steady_clock reads and one
// seqlock ring write (one fetch_add plus stores into a pre-allocated slot,
// no lock); the ring has a fixed kSpanCapacity slots, so long runs stay
// bounded (oldest spans are overwritten).
//
// Span names are path-like, coarse phase labels (the taxonomy lives in
// DESIGN.md §3.8): "model/stamp", "relation/register", "relation/evaluate",
// "batch/sweep", "online/deliver", "online/resync_serve", "online/compact",
// "monitor/ingest", "des/run". Names must be string literals (the record
// stores the pointer, not a copy).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/telemetry.hpp"

namespace syncon::obs {

/// Microseconds since the process's telemetry epoch (steady clock).
std::uint64_t now_us();

/// Small dense id of the calling thread (0 for the first thread seen).
std::uint32_t current_thread_slot();

/// Per-name aggregate over a ring's retained kSpan records.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t max_us = 0;
  double mean_us() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_us) /
                            static_cast<double>(count);
  }
};

/// Aggregates the retained kSpan records by name, name-sorted.
std::vector<SpanStats> aggregate_spans(const FlightRecorder& ring);

/// RAII span: records into FlightRecorder::spans() iff telemetry was
/// enabled at construction.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) {
    if (enabled()) {
      name_ = name;
      start_ = now_us();
    }
  }
  ~SpanGuard() {
    if (name_ != nullptr) {
      FlightRecorder::spans().record(FlightKind::kSpan, current_thread_slot(),
                                     reinterpret_cast<std::uintptr_t>(name_),
                                     start_);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
};

}  // namespace syncon::obs

#define SYNCON_SPAN_CONCAT2(a, b) a##b
#define SYNCON_SPAN_CONCAT(a, b) SYNCON_SPAN_CONCAT2(a, b)
/// Opens a span covering the rest of the enclosing scope.
#define SYNCON_SPAN(name) \
  ::syncon::obs::SpanGuard SYNCON_SPAN_CONCAT(syncon_span_, __COUNTER__)(name)
