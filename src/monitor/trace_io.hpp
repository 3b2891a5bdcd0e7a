// Plain-text serialization of executions and interval sets, so recorded
// traces can be stored, shipped, and re-analyzed (the workflow Problem 4
// assumes).
//
// Trace format (one record per line, '#' starts a comment):
//   syncon-trace 1
//   processes <P>
//   e <process>                         -- local/send event
//   e <process> < <p>:<i> [<p>:<i> …]   -- receive event with its sources
// Events appear in a topological order; indices are implicit (events of a
// process are numbered 1.. in order of appearance).
//
// Interval-set format:
//   syncon-intervals 1
//   i <label> <p>:<i> [<p>:<i> …]       -- label must contain no whitespace
//
// Event references and time annotations are plain decimal digits that fit
// their field (a time may be negative); anything else is a TraceFormatError
// naming the token.
#pragma once

#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/execution.hpp"
#include "nonatomic/interval.hpp"
#include "timing/physical_time.hpp"

namespace syncon {

/// Thrown on malformed trace/interval input. what() always pinpoints the
/// failure as "line <N>: <problem> [near '<token>']"; the raw location and
/// offending token are also available structurally.
class TraceFormatError : public std::runtime_error {
 public:
  explicit TraceFormatError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
  TraceFormatError(std::size_t line, const std::string& problem,
                   const std::string& token = "")
      : std::runtime_error("line " + std::to_string(line) + ": " + problem +
                           (token.empty() ? "" : " near '" + token + "'")),
        line_(line),
        token_(token) {}

  /// 1-based input line the failure was detected on (0 if unknown).
  std::size_t line() const { return line_; }
  /// The token that failed to parse ("" when the whole line is at fault).
  const std::string& token() const { return token_; }

 private:
  std::size_t line_ = 0;
  std::string token_;
};

void write_trace(std::ostream& os, const Execution& exec);
std::string trace_to_string(const Execution& exec);

Execution read_trace(std::istream& is);
Execution trace_from_string(const std::string& text);

void write_intervals(std::ostream& os,
                     const std::vector<NonatomicEvent>& intervals);
std::vector<NonatomicEvent> read_intervals(std::istream& is,
                                           const Execution& exec);

/// Graphviz export: one cluster per process line, message edges dashed,
/// and (optionally) nonatomic events as colored node groups — handy for
/// inspecting small traces visually.
void write_dot(std::ostream& os, const Execution& exec,
               const std::vector<NonatomicEvent>& highlight = {});

/// Timed variant of the trace format: every event record carries a physical
/// timestamp annotation, `e <p> @<µs> [< sources]`.
void write_timed_trace(std::ostream& os, const Execution& exec,
                       const PhysicalTimes& times);

/// Result of reading a (possibly) timed trace; `times` is null when the
/// input had no @-annotations. Mixing annotated and plain events is an
/// error.
struct TimedTrace {
  std::shared_ptr<const Execution> execution;
  std::shared_ptr<const PhysicalTimes> times;
};

TimedTrace read_timed_trace(std::istream& is);

}  // namespace syncon
