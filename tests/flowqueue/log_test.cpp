#include "flowqueue/log.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace approxiot::flowqueue {
namespace {

Record make_record(const std::string& key, std::size_t payload_bytes = 4) {
  Record r;
  r.key = key;
  r.value.assign(payload_bytes, 0xAB);
  return r;
}

TEST(PartitionLogTest, AppendAssignsDenseOffsets) {
  PartitionLog log;
  EXPECT_EQ(log.append(make_record("a")), 0);
  EXPECT_EQ(log.append(make_record("b")), 1);
  EXPECT_EQ(log.append(make_record("c")), 2);
  EXPECT_EQ(log.end_offset(), 3);
}

TEST(PartitionLogTest, ReadReturnsRequestedRange) {
  PartitionLog log;
  for (int i = 0; i < 10; ++i) {
    log.append(make_record(std::string("k").append(std::to_string(i))));
  }
  std::vector<Record> out;
  EXPECT_EQ(log.read(3, 4, out), 4u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].key, "k3");
  EXPECT_EQ(out[0].offset, 3);
  EXPECT_EQ(out[3].key, "k6");
}

TEST(PartitionLogTest, ReadPastEndIsEmpty) {
  PartitionLog log;
  log.append(make_record("x"));
  std::vector<Record> out;
  EXPECT_EQ(log.read(1, 10, out), 0u);
  EXPECT_EQ(log.read(100, 10, out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(PartitionLogTest, NegativeFromReadsFromStart) {
  PartitionLog log;
  log.append(make_record("first"));
  std::vector<Record> out;
  EXPECT_EQ(log.read(-5, 10, out), 1u);
  EXPECT_EQ(out[0].key, "first");
}

TEST(PartitionLogTest, ZeroMaxRecordsReadsNothing) {
  PartitionLog log;
  log.append(make_record("x"));
  std::vector<Record> out;
  EXPECT_EQ(log.read(0, 0, out), 0u);
}

TEST(PartitionLogTest, ReadAppendsToExistingVector) {
  PartitionLog log;
  log.append(make_record("a"));
  log.append(make_record("b"));
  std::vector<Record> out;
  log.read(0, 1, out);
  log.read(1, 1, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, "a");
  EXPECT_EQ(out[1].key, "b");
}

TEST(PartitionLogTest, TracksBytesAppended) {
  PartitionLog log;
  EXPECT_EQ(log.bytes_appended(), 0u);
  Record r = make_record("key", 100);
  const std::size_t expected = r.byte_size();
  log.append(std::move(r));
  EXPECT_EQ(log.bytes_appended(), expected);
}

TEST(PartitionLogTest, ConcurrentAppendsAllLand) {
  PartitionLog log;
  constexpr int kThreadCount = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreadCount; ++t) {
    threads.emplace_back([&log, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        log.append(make_record(std::to_string(t)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.end_offset(), kThreadCount * kPerThread);
  // Offsets must be dense: reading everything yields end_offset records.
  std::vector<Record> out;
  EXPECT_EQ(log.read(0, kThreadCount * kPerThread + 10, out),
            static_cast<std::size_t>(kThreadCount * kPerThread));
}

}  // namespace
}  // namespace approxiot::flowqueue
