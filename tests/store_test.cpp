// The durable store stack from the bottom up: CRC frame scanning, snapshot
// serialization, the SimStorage crash model, and the Store's recovery
// truncation / rotation / pruning invariants (DESIGN.md §3.12).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "cuts/watermark.hpp"
#include "store/snapshot.hpp"
#include "store/storage.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"
#include "support/contracts.hpp"
#include "support/varint.hpp"

namespace syncon {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// --- WAL framing -----------------------------------------------------------

TEST(WalTest, FramesRoundTrip) {
  std::vector<std::uint8_t> log;
  append_frame(bytes_of({1, 2, 3}), log);
  append_frame(bytes_of({}), log);
  append_frame(bytes_of({0xff, 0x00}), log);

  FrameReader reader(log);
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_EQ(reader.next()->size(), 0u);
  EXPECT_EQ(reader.next()->size(), 2u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.corrupt());
  EXPECT_EQ(reader.valid_bytes(), log.size());
  EXPECT_EQ(reader.frames_read(), 3u);
}

TEST(WalTest, BitFlipStopsTheScanAtTheLastValidFrame) {
  std::vector<std::uint8_t> log;
  append_frame(bytes_of({1, 2, 3}), log);
  const std::size_t first = log.size();
  append_frame(bytes_of({4, 5, 6}), log);
  log[first + 2] ^= 0x10;  // corrupt the second frame's payload

  FrameReader reader(log);
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
  EXPECT_EQ(reader.valid_bytes(), first);  // truncation offset
  EXPECT_EQ(reader.frames_read(), 1u);
}

TEST(WalTest, TornLengthPrefixIsCorrupt) {
  std::vector<std::uint8_t> log;
  append_frame(bytes_of({9, 9}), log);
  const std::size_t first = log.size();
  log.push_back(0x20);  // a length byte promising 32 bytes that never come

  FrameReader reader(log);
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
  EXPECT_EQ(reader.valid_bytes(), first);
}

// --- snapshot serialization ------------------------------------------------

RetentionCheckpoint sample_checkpoint() {
  RetentionCheckpoint cp = RetentionCheckpoint::bottom(3);
  cp.cut = VectorClock({4, 1, 2});
  cp.surface_clocks[0] = VectorClock({4, 0, 1});
  cp.surface_clocks[2] = VectorClock({2, 0, 2});
  cp.surface_times[0] = 77;
  cp.sequence = 5;
  cp.reclaimed_total = 4;
  return cp;
}

TEST(SnapshotTest, RoundTrips) {
  const SnapshotImage image{3, sample_checkpoint()};
  const std::vector<std::uint8_t> bytes = encode_snapshot(image);
  const auto decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->process_count, 3u);
  EXPECT_EQ(decoded->checkpoint.cut, image.checkpoint.cut);
  EXPECT_EQ(decoded->checkpoint.surface_clocks, image.checkpoint.surface_clocks);
  EXPECT_EQ(decoded->checkpoint.surface_times, image.checkpoint.surface_times);
  EXPECT_EQ(decoded->checkpoint.sequence, 5u);
  EXPECT_EQ(decoded->checkpoint.reclaimed_total, 4u);
}

TEST(SnapshotTest, RejectsTornAndFlippedBytesWholesale) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(SnapshotImage{3, sample_checkpoint()});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_snapshot({bytes.data(), cut}).has_value());
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[i] ^= 0x04;
    EXPECT_FALSE(decode_snapshot(flipped).has_value()) << "byte " << i;
  }
}

// --- SimStorage crash model ------------------------------------------------

TEST(SimStorageTest, CrashKeepsSyncedPrefixDropsUnsyncedSuffix) {
  SimStorage storage;  // torn_tail = 0: clean suffix loss
  storage.append("a", bytes_of({1, 2, 3}));
  storage.sync("a");
  storage.append("a", bytes_of({4, 5}));
  storage.append("ghost", bytes_of({9}));  // never synced

  storage.crash();
  EXPECT_EQ(storage.read("a"), bytes_of({1, 2, 3}));
  EXPECT_FALSE(storage.exists("ghost"));  // unsynced objects vanish
}

TEST(SimStorageTest, ReorderedVisibilityYoungerSyncedSurvivesOlderUnsynced) {
  SimStorage storage;
  storage.append("wal-000000000001", bytes_of({1}));  // old, never synced
  storage.append("wal-000000000002", bytes_of({2}));
  storage.sync("wal-000000000002");  // young, durable

  storage.crash();
  EXPECT_FALSE(storage.exists("wal-000000000001"));
  EXPECT_TRUE(storage.exists("wal-000000000002"));
}

TEST(SimStorageTest, ArmedCrashFiresBeforeTheOpTakesEffect) {
  SimStorage storage;
  storage.append("a", bytes_of({1}));
  storage.sync("a");
  storage.crash_after_ops(1);
  EXPECT_THROW(storage.append("a", bytes_of({2})), StorageCrash);
  EXPECT_EQ(storage.read("a"), bytes_of({1}));  // the append never landed
  EXPECT_EQ(storage.crashes(), 1u);
  storage.append("a", bytes_of({3}));  // disarmed afterwards
  EXPECT_EQ(storage.read("a"), bytes_of({1, 3}));
}

TEST(SimStorageTest, TornTailIsDeterministicBySeed) {
  const auto run = [](std::uint64_t seed) {
    SimStorage storage(SimFaultConfig{1.0, 0.2, seed});
    storage.append("a", bytes_of({1, 2, 3, 4}));
    storage.sync("a");
    for (int i = 0; i < 32; ++i) {
      storage.append("a", bytes_of({i, i, i, i}));
    }
    storage.crash();
    return storage.read("a");
  };
  const std::vector<std::uint8_t> a = run(7);
  EXPECT_EQ(a, run(7));                     // reproducible
  EXPECT_NE(a, run(8));                     // seed-sensitive
  ASSERT_GE(a.size(), 4u);                  // synced bytes are sacred
  EXPECT_EQ(std::vector<std::uint8_t>(a.begin(), a.begin() + 4),
            bytes_of({1, 2, 3, 4}));
}

// --- Store recovery / rotation / pruning -----------------------------------

DurabilityPolicy tight_policy() {
  DurabilityPolicy policy;
  policy.sync_every = 1;
  policy.segment_records = 2;
  policy.full_interval = 4;
  return policy;
}

TEST(StoreTest, RotationKeepsOnlyTheOpenSegmentVulnerable) {
  SimStorage storage;
  Store store(storage, 2, tight_policy());
  const EventId t0[] = {EventId{0, 1}};
  for (int i = 0; i < 5; ++i) store.append(bytes_of({i}), t0);
  // 5 records at 2 per segment: two closed (synced) segments + an open one.
  EXPECT_EQ(store.live_segments(), 3u);
  EXPECT_EQ(store.records_appended(), 5u);
}

TEST(StoreTest, RecoveryTruncatesAtFirstInvalidFrameAndDropsLaterSegments) {
  SimStorage storage;
  std::vector<std::string> segments;
  {
    Store store(storage, 2, tight_policy());
    const EventId t0[] = {EventId{0, 1}};
    for (int i = 0; i < 6; ++i) store.append(bytes_of({i, i}), t0);
    store.sync();
    segments = storage.list();  // three wal segments, 2 records each
  }
  // Three segment objects: the rotation after record 6 opened a fourth
  // segment, but an empty open segment has no storage object yet.
  ASSERT_EQ(segments.size(), 3u);
  // Corrupt the second record of the SECOND segment: recovery must keep the
  // first segment whole, keep the second's first record, and drop the third
  // segment entirely.
  const std::string& victim = segments[1];
  std::vector<std::uint8_t> raw = storage.read(victim);
  FrameReader probe(raw);
  ASSERT_TRUE(probe.next().has_value());
  const std::size_t keep = probe.valid_bytes();
  storage.flip_bit(victim, keep + 3, 2);

  Store recovered(storage, 2, tight_policy());
  const auto& info = recovered.recovery();
  EXPECT_TRUE(info.truncated);
  EXPECT_GE(info.dropped_segments, 1u);
  EXPECT_EQ(info.records, 3u);  // 2 from segment one + 1 surviving
  const auto records = recovered.take_records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].body, bytes_of({0, 0}));
  EXPECT_EQ(records[1].body, bytes_of({1, 1}));
  EXPECT_EQ(records[2].body, bytes_of({2, 2}));
  EXPECT_EQ(storage.size(victim), keep);  // physically truncated
}

// A CRC-valid frame whose retention header names a process outside the
// store is malformed: recovery truncates there and keeps the records before
// it. Process = count is the first id out of range; 0xFFFFFFFF is the id
// whose `+ 1` wraps to zero.
TEST(StoreTest, RecoveryTruncatesAtAnOutOfRangeRetentionProcess) {
  const auto frame_touching = [](std::uint64_t process, int body) {
    std::vector<std::uint8_t> payload;
    encode_varint(1, payload);  // one touched event
    encode_varint(process, payload);
    encode_varint(1, payload);
    payload.push_back(static_cast<std::uint8_t>(body));
    std::vector<std::uint8_t> frame;
    append_frame(payload, frame);
    return frame;
  };
  for (const std::uint64_t process : {std::uint64_t{2}, std::uint64_t{0xFFFFFFFF}}) {
    SCOPED_TRACE(process);
    SimStorage storage;
    {
      Store store(storage, 2, tight_policy());
      const EventId t[] = {EventId{1, 1}};
      store.append(bytes_of({1}), t);
    }
    const std::vector<std::string> names = storage.list();
    ASSERT_EQ(names.size(), 1u);
    const std::string& segment = names[0];
    const std::size_t valid = storage.size(segment);
    storage.append(segment, frame_touching(process, 9));
    storage.append(segment, frame_touching(1, 7));  // valid, but after it
    storage.sync(segment);

    Store recovered(storage, 2, tight_policy());
    EXPECT_TRUE(recovered.recovery().truncated);
    const auto records = recovered.take_records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].body, bytes_of({1}));
    EXPECT_EQ(storage.size(segment), valid);
  }
}

TEST(StoreTest, AppendRejectsAProcessOutsideTheStore) {
  SimStorage storage;
  Store store(storage, 2, tight_policy());
  const EventId outside[] = {EventId{2, 1}};
  EXPECT_THROW(store.append(bytes_of({1}), outside), ContractViolation);
  EXPECT_EQ(store.records_appended(), 0u);
}

TEST(StoreTest, SnapshotFallsBackPastACorruptNewestOne) {
  SimStorage storage;
  {
    Store store(storage, 2, tight_policy());
    RetentionCheckpoint cp = RetentionCheckpoint::bottom(2);
    cp.cut = VectorClock({2, 1});
    cp.sequence = 1;
    store.write_snapshot(SnapshotImage{2, cp});
    cp.cut = VectorClock({3, 1});
    cp.sequence = 2;
    store.write_snapshot(SnapshotImage{2, cp});
  }
  // Corrupt the newest snapshot file; recovery must fall back to sequence 1.
  std::string newest;
  for (const std::string& name : storage.list()) {
    if (name.rfind("snap-", 0) == 0) newest = name;  // sorted: last wins
  }
  ASSERT_FALSE(newest.empty());
  storage.flip_bit(newest, storage.size(newest) / 2, 5);

  Store recovered(storage, 2, tight_policy());
  const auto& info = recovered.recovery();
  ASSERT_TRUE(info.snapshot.has_value());
  EXPECT_EQ(info.snapshot->checkpoint.sequence, 1u);
  EXPECT_EQ(info.snapshots_discarded, 1u);
  EXPECT_FALSE(storage.exists(newest));  // the corrupt file was removed
}

TEST(StoreTest, PruneReclaimsOnlyCoveredFrontSegments) {
  SimStorage storage;
  Store store(storage, 2, tight_policy());
  const EventId lo[] = {EventId{0, 1}};
  const EventId hi[] = {EventId{0, 9}};
  store.append(bytes_of({1}), lo);
  store.append(bytes_of({2}), lo);           // segment 1 closes: bound (0,1)
  store.append(bytes_of({3}), hi);
  store.append(bytes_of({4}), hi);           // segment 2 closes: bound (0,9)
  store.append(bytes_of({5}), lo);           // open segment

  RetentionCheckpoint cp = RetentionCheckpoint::bottom(1);
  cp.cut = VectorClock({5});  // covers (0,1..4): segment 1 yes, segment 2 no
  store.write_snapshot(SnapshotImage{1, cp});
  EXPECT_EQ(store.segments_pruned(), 1u);
  EXPECT_EQ(store.live_segments(), 2u);  // stops at the uncovered segment
}

TEST(StoreTest, KeepsTheNewestTwoSnapshots) {
  SimStorage storage;
  Store store(storage, 2, tight_policy());
  for (std::uint64_t s = 1; s <= 4; ++s) {
    RetentionCheckpoint cp = RetentionCheckpoint::bottom(1);
    cp.sequence = s;
    store.write_snapshot(SnapshotImage{1, cp});
  }
  std::size_t snaps = 0;
  for (const std::string& name : storage.list()) {
    snaps += name.rfind("snap-", 0) == 0;
  }
  EXPECT_EQ(snaps, 2u);
  EXPECT_EQ(store.snapshots_written(), 4u);
}

// --- FileStorage -----------------------------------------------------------

TEST(FileStorageTest, RoundTripsThroughARealDirectory) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "syncon_store_test").string();
  std::filesystem::remove_all(dir);
  {
    FileStorage storage(dir);
    storage.append("wal-000000000001", bytes_of({1, 2, 3}));
    storage.sync("wal-000000000001");
    storage.append("wal-000000000001", bytes_of({4}));
    storage.append("snap-000000000001", bytes_of({9, 9}));
    EXPECT_TRUE(storage.exists("wal-000000000001"));
    EXPECT_EQ(storage.size("wal-000000000001"), 4u);
    EXPECT_EQ(storage.read("wal-000000000001"), bytes_of({1, 2, 3, 4}));
  }
  {
    FileStorage storage(dir);  // a fresh handle set sees the same objects
    const std::vector<std::string> names = storage.list();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "snap-000000000001");
    EXPECT_EQ(names[1], "wal-000000000001");
    storage.truncate("wal-000000000001", 2);
    EXPECT_EQ(storage.read("wal-000000000001"), bytes_of({1, 2}));
    storage.remove("snap-000000000001");
    EXPECT_FALSE(storage.exists("snap-000000000001"));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace syncon
