// Flight recorder (DESIGN.md §3.13): ring wraparound, zero-cost disabled
// mode, automatic dump-on-quarantine with preceding context, and seqlock
// correctness under concurrent writers (runs under the tsan preset via the
// concurrency ctest label).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "online/online_monitor.hpp"
#include "online/online_system.hpp"

namespace syncon {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_flight_enabled(false);
    obs::set_flight_dump_path("");
    obs::FlightRecorder::global().clear();
  }
  void TearDown() override {
    obs::set_flight_enabled(false);
    obs::set_flight_dump_path("");
    obs::FlightRecorder::global().clear();
  }
};

TEST_F(FlightRecorderTest, DisabledRecordsNothing) {
  ASSERT_FALSE(obs::flight_enabled());
  obs::flight(obs::FlightKind::kDelivery, 0, 1, 2);
  EXPECT_TRUE(obs::FlightRecorder::global().dump().empty());
  EXPECT_EQ(obs::FlightRecorder::global().recorded_total(), 0u);
}

TEST_F(FlightRecorderTest, RingKeepsNewestAndDumpsOldestFirst) {
  obs::FlightRecorder ring(8);  // rounded to a power of two
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 21; ++i) {
    ring.record(obs::FlightKind::kDelivery, 0, i);
  }
  const std::vector<obs::FlightRecord> records = ring.dump();
  ASSERT_EQ(records.size(), 8u);
  // The ring retains the newest capacity() records, oldest first.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 13 + i);
    EXPECT_EQ(records[i].a, 13 + i);
    if (i > 0) {
      EXPECT_LT(records[i - 1].seq, records[i].seq);
    }
  }
  EXPECT_EQ(ring.recorded_total(), 21u);
  ring.clear();
  EXPECT_TRUE(ring.dump().empty());
  EXPECT_EQ(ring.recorded_total(), 0u);
}

TEST_F(FlightRecorderTest, PackUnpackEventRoundTrips) {
  const EventId e{7, 123456};
  EXPECT_EQ(obs::unpack_event(obs::pack_event(e)), e);
}

TEST_F(FlightRecorderTest, SpanRecordsPrintTheirKindAndName) {
  obs::FlightRecorder ring(4);
  ring.record(obs::FlightKind::kSpan, 0,
              reinterpret_cast<std::uintptr_t>("test/span"), 0);
  std::ostringstream oss;
  obs::write_flight_text(oss, ring.dump());
  EXPECT_STREQ(obs::to_string(obs::FlightKind::kSpan), "span");
  EXPECT_NE(oss.str().find("span"), std::string::npos);
  EXPECT_NE(oss.str().find("test/span"), std::string::npos);
}

TEST_F(FlightRecorderTest, SystemDeliveriesLandInTheRing) {
  obs::set_flight_enabled(true);
  OnlineSystem sys(2);
  const WireMessage w = sys.send(0);
  sys.deliver(1, w);
  const std::vector<obs::FlightRecord> records =
      obs::FlightRecorder::global().dump();
  ASSERT_FALSE(records.empty());
  const obs::FlightRecord& last = records.back();
  EXPECT_EQ(last.kind, obs::FlightKind::kDelivery);
  EXPECT_EQ(last.process, 1u);
  EXPECT_EQ(obs::unpack_event(last.a), w.source);
}

TEST_F(FlightRecorderTest, QuarantineTriggersAutomaticDumpWithContext) {
  const std::string path =
      ::testing::TempDir() + "flight_quarantine_dump.txt";
  std::remove(path.c_str());
  obs::set_flight_enabled(true);
  obs::set_flight_dump_path(path);

  // Ring context first: a few healthy deliveries...
  OnlineSystem sys(3);
  OnlineMonitor monitor(3);
  for (int i = 0; i < 4; ++i) {
    const WireMessage w = sys.send(0);
    sys.deliver(1, w);
    EXPECT_TRUE(monitor.observe(w));
  }
  // ...then the incident: a corrupt report (all-zero clock violates the
  // Fidge own-component invariant).
  WireMessage poison;
  poison.source = EventId{0, 9};
  poison.clock = VectorClock(3, 0);
  EXPECT_FALSE(monitor.observe(poison));
  EXPECT_EQ(monitor.quarantined(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no automatic dump at " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_NE(dump.find("quarantine"), std::string::npos);
  // The dump carries the offending source and the preceding deliveries.
  EXPECT_NE(dump.find("p0:9"), std::string::npos);
  EXPECT_NE(dump.find("delivery"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, OnDemandDumpThroughOnlineSystem) {
  obs::set_flight_enabled(true);
  OnlineSystem sys(2);
  sys.deliver(1, sys.send(0));
  std::ostringstream oss;
  obs::write_flight_text(oss, obs::FlightRecorder::global().dump());
  EXPECT_NE(oss.str().find("delivery"), std::string::npos);
}

TEST_F(FlightRecorderTest, WritersNeverTearUnderConcurrency) {
  obs::FlightRecorder ring(64);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        // Payload invariant a == b + w lets the reader detect torn slots.
        ring.record(obs::FlightKind::kCheckpoint,
                    static_cast<std::uint32_t>(w),
                    i + static_cast<std::uint64_t>(w), i);
      }
    });
  }
  // Concurrent reader: every dumped record must be internally consistent
  // and in strictly increasing seq order — a torn slot would break both.
  for (int round = 0; round < 200; ++round) {
    const std::vector<obs::FlightRecord> records = ring.dump();
    EXPECT_LE(records.size(), ring.capacity());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].kind, obs::FlightKind::kCheckpoint);
      EXPECT_EQ(records[i].a, records[i].b + records[i].process);
      if (i > 0) {
        EXPECT_LT(records[i - 1].seq, records[i].seq);
      }
    }
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(ring.recorded_total(), kWriters * kPerWriter);
  const std::vector<obs::FlightRecord> final_records = ring.dump();
  EXPECT_EQ(final_records.size(), ring.capacity());
}

}  // namespace
}  // namespace syncon
