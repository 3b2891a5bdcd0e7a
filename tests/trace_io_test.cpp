#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "model/timestamps.hpp"
#include "monitor/trace_io.hpp"
#include "sim/interval_picker.hpp"
#include "sim/workload.hpp"
#include "timing/physical_time.hpp"

namespace syncon {
namespace {

using testing::property_sweep;
using testing::two_process_message;

TEST(TraceIoTest, WritesReadableFormat) {
  const Execution exec = two_process_message();
  const std::string text = trace_to_string(exec);
  EXPECT_NE(text.find("syncon-trace 1"), std::string::npos);
  EXPECT_NE(text.find("processes 2"), std::string::npos);
  EXPECT_NE(text.find("e 1 < 0:2"), std::string::npos);  // the receive
}

TEST(TraceIoTest, RoundTripPreservesStructure) {
  const Execution exec = two_process_message();
  const Execution copy = trace_from_string(trace_to_string(exec));
  ASSERT_EQ(copy.process_count(), exec.process_count());
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    ASSERT_EQ(copy.real_count(p), exec.real_count(p));
  }
  ASSERT_EQ(copy.messages().size(), exec.messages().size());
  // Causality is identical.
  const Timestamps ts_a(exec), ts_b(copy);
  for (const EventId& e : exec.topological_order()) {
    ASSERT_EQ(ts_a.forward(e), ts_b.forward(e));
  }
}

TEST(TraceIoTest, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a trace\n\nsyncon-trace 1\n# p count\nprocesses 2\n\ne 0\n# recv\n"
      "e 1 < 0:1\n";
  const Execution exec = trace_from_string(text);
  EXPECT_EQ(exec.real_count(0), 1u);
  EXPECT_EQ(exec.real_count(1), 1u);
  EXPECT_EQ(exec.messages().size(), 1u);
}

TEST(TraceIoTest, RejectsMissingHeader) {
  EXPECT_THROW(trace_from_string("processes 2\ne 0\n"), TraceFormatError);
}

TEST(TraceIoTest, RejectsBadProcessCount) {
  EXPECT_THROW(trace_from_string("syncon-trace 1\nprocesses 0\n"),
               TraceFormatError);
  EXPECT_THROW(trace_from_string("syncon-trace 1\nprocesses x\n"),
               TraceFormatError);
}

TEST(TraceIoTest, RejectsOutOfRangeProcess) {
  EXPECT_THROW(trace_from_string("syncon-trace 1\nprocesses 2\ne 2\n"),
               TraceFormatError);
}

TEST(TraceIoTest, RejectsForwardReferences) {
  // Receive references an event that does not exist yet.
  EXPECT_THROW(
      trace_from_string("syncon-trace 1\nprocesses 2\ne 1 < 0:1\ne 0\n"),
      TraceFormatError);
}

TEST(TraceIoTest, RejectsSelfReceive) {
  EXPECT_THROW(
      trace_from_string("syncon-trace 1\nprocesses 2\ne 0\ne 0 < 0:1\n"),
      TraceFormatError);
}

TEST(TraceIoTest, RejectsMalformedEventRef) {
  EXPECT_THROW(
      trace_from_string("syncon-trace 1\nprocesses 2\ne 0\ne 1 < 0-1\n"),
      TraceFormatError);
}

TEST(IntervalIoTest, RoundTrip) {
  WorkloadConfig cfg;
  cfg.seed = 5;
  const Execution exec = generate_execution(cfg);
  Xoshiro256StarStar rng(3);
  IntervalSpec spec;
  spec.node_count = 2;
  spec.max_events_per_node = 2;
  const auto intervals = random_intervals(exec, rng, spec, 5);

  std::stringstream ss;
  write_intervals(ss, intervals);
  const auto loaded = read_intervals(ss, exec);
  ASSERT_EQ(loaded.size(), intervals.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].label(), intervals[i].label());
    EXPECT_EQ(loaded[i].events(), intervals[i].events());
  }
}

TEST(IntervalIoTest, RejectsUnknownEvents) {
  const Execution exec = two_process_message();
  std::stringstream ss("syncon-intervals 1\ni bogus 0:9\n");
  EXPECT_THROW(read_intervals(ss, exec), TraceFormatError);
}

TEST(IntervalIoTest, RejectsDummyEvents) {
  const Execution exec = two_process_message();
  std::stringstream ss("syncon-intervals 1\ni dummy 0:0\n");
  EXPECT_THROW(read_intervals(ss, exec), TraceFormatError);
}

TEST(IntervalIoTest, RejectsEmptyInterval) {
  const Execution exec = two_process_message();
  std::stringstream ss("syncon-intervals 1\ni empty\n");
  EXPECT_THROW(read_intervals(ss, exec), TraceFormatError);
}

TEST(TraceIoTest, GoldenFormatIsStable) {
  // The on-disk format is a compatibility contract; this golden pins it.
  ExecutionBuilder b(3);
  b.local(0);
  const MessageToken m1 = b.send(0);
  b.receive(1, m1);
  const MessageToken m2 = b.send(2);
  const std::vector<MessageToken> both{m1, m2};
  b.receive_all(1, both);
  const Execution exec = b.build();
  const std::string expected =
      "syncon-trace 1\n"
      "processes 3\n"
      "e 0\n"
      "e 0\n"
      "e 1 < 0:2\n"
      "e 2\n"
      "e 1 < 0:2 2:1\n";
  EXPECT_EQ(trace_to_string(exec), expected);
}

TEST(TimedTraceTest, RoundTripPreservesTimes) {
  const Execution exec = two_process_message();
  // Negative times are valid timelines too, and must read back.
  for (const PhysicalTimes& times :
       {PhysicalTimes(exec, {{10, 20, 30}, {1, 25, 40}}),
        PhysicalTimes(exec, {{-30, -20, -10}, {-40, -5, 0}})}) {
    std::stringstream ss;
    write_timed_trace(ss, exec, times);
    const TimedTrace loaded = read_timed_trace(ss);
    ASSERT_NE(loaded.times, nullptr);
    for (const EventId& e : exec.topological_order()) {
      ASSERT_EQ(loaded.times->at(e), times.at(e));
    }
  }
}

TEST(TimedTraceTest, UntimedInputYieldsNullTimes) {
  const Execution exec = two_process_message();
  std::stringstream ss(trace_to_string(exec));
  const TimedTrace loaded = read_timed_trace(ss);
  EXPECT_EQ(loaded.times, nullptr);
  EXPECT_EQ(loaded.execution->total_real_count(), exec.total_real_count());
}

TEST(TimedTraceTest, RejectsMixedRecords) {
  const std::string text =
      "syncon-trace 1\nprocesses 2\ne 0 @10\ne 1\n";
  std::stringstream ss(text);
  EXPECT_THROW(read_timed_trace(ss), TraceFormatError);
}

TEST(TimedTraceTest, RejectsCausallyInvalidTimes) {
  // Receive stamped before its send.
  const std::string text =
      "syncon-trace 1\nprocesses 2\ne 0 @100\ne 1 @50 < 0:1\n";
  std::stringstream ss(text);
  EXPECT_THROW(read_timed_trace(ss), TraceFormatError);
}

TEST(TimedTraceTest, RejectsBadAnnotation) {
  const std::string text = "syncon-trace 1\nprocesses 1\ne 0 @abc\n";
  std::stringstream ss(text);
  EXPECT_THROW(read_timed_trace(ss), TraceFormatError);
}

TEST(TimedTraceTest, DesResultRoundTrips) {
  // End-to-end: simulate with the DES engine, persist the timed trace,
  // reload, and verify the timeline survives.
  WorkloadConfig wcfg;  // unused; the DES run below is self-contained
  (void)wcfg;
  const Execution exec = two_process_message();
  TimingModel model;
  model.seed = 3;
  const PhysicalTimes times = assign_times(exec, model);
  std::stringstream ss;
  write_timed_trace(ss, exec, times);
  const TimedTrace loaded = read_timed_trace(ss);
  ASSERT_NE(loaded.times, nullptr);
  EXPECT_EQ(loaded.times->horizon(), times.horizon());
}

class TraceIoPropertyTest : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(TraceIoPropertyTest, RoundTripOnGeneratedWorkloads) {
  const Execution exec = generate_execution(GetParam());
  const Execution copy = trace_from_string(trace_to_string(exec));
  ASSERT_EQ(copy.process_count(), exec.process_count());
  ASSERT_EQ(copy.total_real_count(), exec.total_real_count());
  ASSERT_EQ(copy.messages().size(), exec.messages().size());
  const Timestamps ts_a(exec), ts_b(copy);
  for (const EventId& e : exec.topological_order()) {
    ASSERT_EQ(ts_a.forward(e), ts_b.forward(e));
    ASSERT_EQ(ts_a.future_start(e), ts_b.future_start(e));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TraceIoPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

TEST(TraceIoErrorTest, ErrorsCarryLineAndToken) {
  try {
    trace_from_string("syncon-trace 1\nprocesses 2\ne 0\ne 7\n");
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& err) {
    EXPECT_EQ(err.line(), 4u);
    EXPECT_EQ(err.token(), "e 7");
    const std::string what = err.what();
    EXPECT_NE(what.find("line 4"), std::string::npos);
    EXPECT_NE(what.find("2 processes"), std::string::npos);
    EXPECT_NE(what.find("'e 7'"), std::string::npos);
  }
}

// Numbers are strict: ASCII digits that fit the field, consuming the whole
// token. Each of these references once parsed as a different, valid event
// (a sign, trailing junk, or a value wrapped to 32 bits).
const std::vector<std::string> kMalformedRefs = {
    "4294967297:1", "4294967296:1", "1junk:1x", "0:1x", "+0:1",
    "0:-4294967295"};

template <typename Read>
void expect_rejects_token(Read read, const std::string& token) {
  try {
    read();
    ADD_FAILURE() << "accepted '" << token << "'";
  } catch (const TraceFormatError& err) {
    EXPECT_EQ(err.token(), token);
    EXPECT_NE(std::string(err.what()).find(token), std::string::npos);
  }
}

TEST(TraceIoStrictNumberTest, TraceReadersRejectMalformedSources) {
  for (const std::string& token : kMalformedRefs) {
    const std::string text =
        "syncon-trace 1\nprocesses 3\ne 0\ne 1\ne 2 < " + token + "\n";
    expect_rejects_token([&] { trace_from_string(text); }, token);
    expect_rejects_token(
        [&] {
          std::istringstream in(text);
          read_timed_trace(in);
        },
        token);
  }
}

TEST(TraceIoStrictNumberTest, IntervalReaderRejectsMalformedRefs) {
  const Execution exec = two_process_message();
  for (const std::string& token : kMalformedRefs) {
    expect_rejects_token(
        [&] {
          std::istringstream in("syncon-intervals 1\ni B " + token + "\n");
          read_intervals(in, exec);
        },
        token);
  }
}

TEST(TraceIoStrictNumberTest, TimedReaderRejectsMalformedAnnotations) {
  for (const std::string token : {"@12abc", "@+12", "@"}) {
    expect_rejects_token(
        [&] {
          std::istringstream in("syncon-trace 1\nprocesses 1\ne 0 " + token +
                                "\n");
          read_timed_trace(in);
        },
        token);
  }
}

// Robustness property (DESIGN.md §3.7): a reader facing storage/transport
// corruption must either parse (when the damage happens to leave a valid
// trace) or throw a clean TraceFormatError — never crash, never escape a
// different exception type, never return a structurally broken Execution.
class TraceCorruptionTest : public ::testing::Test {
 protected:
  // Returns true if the text still parsed; validates failure cleanliness
  // otherwise. Any non-TraceFormatError exception propagates and fails.
  static bool parses_or_fails_cleanly(const std::string& text) {
    try {
      const Execution parsed = trace_from_string(text);
      // No silent misparse: the accepted result must itself round-trip.
      const Execution again = trace_from_string(trace_to_string(parsed));
      EXPECT_EQ(again.total_real_count(), parsed.total_real_count());
      return true;
    } catch (const TraceFormatError& err) {
      EXPECT_FALSE(std::string(err.what()).empty());
      const auto lines = static_cast<std::size_t>(
          1 + std::count(text.begin(), text.end(), '\n'));
      EXPECT_LE(err.line(), lines + 1);  // LineReader's virtual EOF line
      return false;
    }
  }

  static std::string valid_trace() {
    WorkloadConfig cfg;
    cfg.seed = 9;
    return trace_to_string(generate_execution(cfg));
  }
};

TEST_F(TraceCorruptionTest, EveryTruncationFailsCleanlyOrParses) {
  const std::string good = valid_trace();
  for (std::size_t len = 0; len < good.size(); ++len) {
    parses_or_fails_cleanly(good.substr(0, len));
  }
}

TEST_F(TraceCorruptionTest, BitFlipsFailCleanlyOrParse) {
  const std::string good = valid_trace();
  Xoshiro256StarStar rng(2026);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 800; ++trial) {
    std::string text = good;
    const std::size_t pos = rng.below(text.size());
    text[pos] = static_cast<char>(
        static_cast<unsigned char>(text[pos]) ^ (1u << rng.below(8)));
    if (!parses_or_fails_cleanly(text)) ++rejected;
  }
  // The format is dense enough that most single-bit flips are detected.
  EXPECT_GT(rejected, 0u);
}

TEST_F(TraceCorruptionTest, LinePermutationsFailCleanlyOrParse) {
  const std::string good = valid_trace();
  std::vector<std::string> lines;
  std::istringstream in(good);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  Xoshiro256StarStar rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::shuffle(lines.begin(), lines.end(), rng);
    std::string text;
    for (const std::string& l : lines) text += l + "\n";
    parses_or_fails_cleanly(text);
  }
}

}  // namespace
}  // namespace syncon
