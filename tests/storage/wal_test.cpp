#include "storage/wal.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/crc32.hpp"
#include "storage/disk.hpp"

namespace lyra::storage {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct Record {
  std::uint8_t type;
  Bytes payload;
};

std::vector<Record> replay_all(const Disk& disk, WalReplayStats* stats_out,
                               std::uint64_t from_segment = 0) {
  std::vector<Record> records;
  const WalReplayStats stats =
      wal_replay(disk, from_segment, [&](std::uint8_t type, BytesView payload) {
        records.push_back({type, Bytes(payload.begin(), payload.end())});
      });
  if (stats_out != nullptr) *stats_out = stats;
  return records;
}

TEST(Crc32Test, MatchesKnownVectors) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  const Bytes data = bytes_of("123456789");
  EXPECT_EQ(crc32({data.data(), data.size()}), 0xCBF43926u);
  EXPECT_EQ(crc32(BytesView{}), 0u);
}

TEST(Crc32Test, IncrementalEqualsOneShot) {
  const Bytes data = bytes_of("hello wal world");
  std::uint32_t state = kCrc32Init;
  state = crc32_update(state, {data.data(), 5});
  state = crc32_update(state, {data.data() + 5, data.size() - 5});
  EXPECT_EQ(crc32_final(state), crc32({data.data(), data.size()}));
}

TEST(WalSegmentNameTest, RoundTrips) {
  const std::string name = wal_segment_name(42);
  std::uint64_t index = 0;
  ASSERT_TRUE(parse_wal_segment_name(name, index));
  EXPECT_EQ(index, 42u);
  EXPECT_FALSE(parse_wal_segment_name("snap-0000000042.img", index));
  EXPECT_FALSE(parse_wal_segment_name("wal-badbadbad0.log", index));
  EXPECT_FALSE(parse_wal_segment_name("wal-42.log", index));
}

TEST(WalTest, AppendReplayRoundTrip) {
  MemDisk disk;
  WalWriter writer(&disk);
  writer.append(1, bytes_of("alpha"));
  writer.append(2, bytes_of(""));
  writer.append(7, bytes_of("gamma-gamma"));

  WalReplayStats stats;
  const auto records = replay_all(disk, &stats);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[0].payload, bytes_of("alpha"));
  EXPECT_EQ(records[1].type, 2);
  EXPECT_TRUE(records[1].payload.empty());
  EXPECT_EQ(records[2].type, 7);
  EXPECT_EQ(records[2].payload, bytes_of("gamma-gamma"));
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.torn_tail_bytes, 0u);
  EXPECT_FALSE(stats.corrupt);
}

TEST(WalTest, RollsSegmentsAndReplaysInOrder) {
  MemDisk disk;
  WalWriter::Options options;
  options.segment_bytes = 32;  // force frequent rolls
  WalWriter writer(&disk, options);
  for (int i = 0; i < 20; ++i) {
    writer.append(1, bytes_of("record-" + std::to_string(i)));
  }
  EXPECT_GT(writer.current_segment(), 0u);

  WalReplayStats stats;
  const auto records = replay_all(disk, &stats);
  ASSERT_EQ(records.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(records[i].payload, bytes_of("record-" + std::to_string(i)));
  }
  EXPECT_GT(stats.segments, 1u);
}

TEST(WalTest, WriterNeverReopensExistingSegments) {
  MemDisk disk;
  {
    WalWriter writer(&disk);
    writer.append(1, bytes_of("first life"));
  }
  WalWriter second(&disk);
  EXPECT_EQ(second.current_segment(), 1u);
  second.append(1, bytes_of("second life"));

  const auto records = replay_all(disk, nullptr);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, bytes_of("first life"));
  EXPECT_EQ(records[1].payload, bytes_of("second life"));
}

TEST(WalTest, ToleratesTornTailInLastSegment) {
  MemDisk disk;
  WalWriter writer(&disk);
  writer.append(1, bytes_of("whole"));
  writer.append(1, bytes_of("torn-away"));
  const std::string segment = wal_segment_name(0);
  const std::size_t full = disk.read(segment).size();
  disk.truncate(segment, full - 3);  // rip into the last record's CRC

  WalReplayStats stats;
  const auto records = replay_all(disk, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, bytes_of("whole"));
  EXPECT_GT(stats.torn_tail_bytes, 0u);
  EXPECT_FALSE(stats.corrupt);
}

TEST(WalTest, TornHeaderInLastSegmentIsTolerated) {
  MemDisk disk;
  WalWriter writer(&disk);
  writer.append(1, bytes_of("whole"));
  // A lone partial header (crash between header and payload write).
  disk.append(wal_segment_name(0), Bytes{0x10, 0x00});

  WalReplayStats stats;
  const auto records = replay_all(disk, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.torn_tail_bytes, 2u);
  EXPECT_FALSE(stats.corrupt);
}

TEST(WalTest, RepairsTornTailAcrossTwoRestarts) {
  // Crash #1 tears segment 0's tail; the second writer must repair it at
  // construction before opening segment 1, because crash #2 then tears
  // segment 1's tail and leaves segment 0 mid-log — where unrepaired torn
  // bytes would read as corruption and discard the second life entirely.
  MemDisk disk;
  {
    WalWriter writer(&disk);
    writer.append(1, bytes_of("live-1-whole"));
    writer.append(1, bytes_of("live-1-torn"));
  }
  const std::string seg0 = wal_segment_name(0);
  disk.truncate(seg0, disk.read(seg0).size() - 3);
  {
    WalWriter writer(&disk);
    EXPECT_EQ(writer.current_segment(), 1u);
    EXPECT_GT(writer.repaired_bytes(), 0u);
    writer.append(1, bytes_of("live-2-whole"));
    writer.append(1, bytes_of("live-2-torn"));
  }
  const std::string seg1 = wal_segment_name(1);
  disk.truncate(seg1, disk.read(seg1).size() - 3);

  WalReplayStats stats;
  const auto records = replay_all(disk, &stats);
  EXPECT_FALSE(stats.corrupt);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, bytes_of("live-1-whole"));
  EXPECT_EQ(records[1].payload, bytes_of("live-2-whole"));
  EXPECT_GT(stats.torn_tail_bytes, 0u);  // seg1's tear is still the newest
}

TEST(WalTest, RepairLeavesCrcCorruptionForEscalation) {
  // Tail repair only truncates incomplete frames; a complete frame with a
  // bad CRC is acknowledged history gone wrong and must survive untouched
  // so replay can escalate it.
  MemDisk disk;
  {
    WalWriter writer(&disk);
    writer.append(1, bytes_of("first"));
    writer.append(1, bytes_of("second"));
  }
  disk.corrupt(wal_segment_name(0), 6);
  EXPECT_EQ(wal_repair_tail(disk), 0u);
  WalWriter second(&disk);
  EXPECT_EQ(second.repaired_bytes(), 0u);

  WalReplayStats stats;
  replay_all(disk, &stats);
  EXPECT_TRUE(stats.corrupt);
}

TEST(WalTest, RepairOnWholeOrEmptyLogIsNoOp) {
  MemDisk disk;
  EXPECT_EQ(wal_repair_tail(disk), 0u);  // no segments at all
  WalWriter writer(&disk);
  writer.append(1, bytes_of("whole"));
  const std::size_t before = disk.read(wal_segment_name(0)).size();
  EXPECT_EQ(wal_repair_tail(disk), 0u);
  EXPECT_EQ(disk.read(wal_segment_name(0)).size(), before);
}

TEST(WalTest, DetectsCrcCorruption) {
  MemDisk disk;
  WalWriter writer(&disk);
  writer.append(1, bytes_of("first"));
  writer.append(1, bytes_of("second"));
  // Flip a byte inside the first record's payload.
  disk.corrupt(wal_segment_name(0), 6);

  WalReplayStats stats;
  const auto records = replay_all(disk, &stats);
  EXPECT_TRUE(stats.corrupt);
  EXPECT_TRUE(records.empty());  // replay stops at the bad frame
}

TEST(WalTest, ShortFrameInSealedSegmentIsCorruption) {
  MemDisk disk;
  WalWriter::Options options;
  options.segment_bytes = 16;  // every record seals its segment
  WalWriter writer(&disk, options);
  writer.append(1, bytes_of("aaaaaaaaaaaaaaaa"));
  writer.append(1, bytes_of("bbbbbbbbbbbbbbbb"));
  ASSERT_GE(writer.current_segment(), 2u);
  // Rip the tail off segment 0, which is not the last segment.
  const std::string first = wal_segment_name(0);
  disk.truncate(first, disk.read(first).size() - 2);

  WalReplayStats stats;
  replay_all(disk, &stats);
  EXPECT_TRUE(stats.corrupt);
}

TEST(WalTest, ReplayFromSegmentSkipsPrefix) {
  MemDisk disk;
  WalWriter::Options options;
  options.segment_bytes = 16;
  WalWriter writer(&disk, options);
  writer.append(1, bytes_of("old-old-old-old!"));
  writer.append(1, bytes_of("new-new-new-new!"));

  WalReplayStats stats;
  const auto records = replay_all(disk, &stats, /*from_segment=*/1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, bytes_of("new-new-new-new!"));
}

TEST(WalTest, DropSegmentsBeforeKeepsSuffix) {
  MemDisk disk;
  WalWriter::Options options;
  options.segment_bytes = 16;
  WalWriter writer(&disk, options);
  for (int i = 0; i < 4; ++i) {
    writer.append(1, bytes_of("record-#" + std::to_string(i) + "-pad!"));
  }
  const std::uint64_t keep_from = 2;
  writer.drop_segments_before(keep_from);
  for (const std::string& name : disk.list()) {
    std::uint64_t index = 0;
    if (parse_wal_segment_name(name, index)) {
      EXPECT_GE(index, keep_from);
    }
  }
  const auto records = replay_all(disk, nullptr);
  EXPECT_EQ(records.size(), 2u);
}

TEST(MemDiskTest, AtomicWriteReplacesContent) {
  MemDisk disk;
  disk.append("f", bytes_of("aaa"));
  disk.write_atomic("f", bytes_of("bb"));
  EXPECT_EQ(disk.read("f"), bytes_of("bb"));
  disk.remove("f");
  EXPECT_FALSE(disk.exists("f"));
  EXPECT_TRUE(disk.read("f").empty());
}

}  // namespace
}  // namespace lyra::storage
