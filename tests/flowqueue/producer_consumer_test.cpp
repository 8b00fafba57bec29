#include <gtest/gtest.h>

#include <set>
#include <string>

#include "flowqueue/broker.hpp"
#include "flowqueue/consumer.hpp"
#include "flowqueue/producer.hpp"

namespace approxiot::flowqueue {
namespace {

std::vector<std::uint8_t> payload(const std::string& s) {
  return {s.begin(), s.end()};
}

class ProducerConsumerTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(broker_.create_topic("t", 2).is_ok()); }
  Broker broker_;
};

TEST_F(ProducerConsumerTest, SendAndPollRoundTrip) {
  Producer producer(broker_);
  auto sent = producer.send("t", "key", payload("hello"));
  ASSERT_TRUE(sent.is_ok());

  Consumer consumer(broker_, "c1");
  ASSERT_TRUE(consumer.subscribe("g", {"t"}).is_ok());
  auto batch = consumer.poll(10);
  ASSERT_TRUE(batch.is_ok());
  ASSERT_EQ(batch.value().size(), 1u);
  EXPECT_EQ(batch.value()[0].key, "key");
  EXPECT_EQ(std::string(batch.value()[0].value.begin(),
                        batch.value()[0].value.end()),
            "hello");
}

TEST_F(ProducerConsumerTest, PartitionWatermarksTrackPositionsAndEnds) {
  Producer producer(broker_);
  // Pin records to known partitions: 3 in partition 0, 1 in partition 1.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(producer.send_to_partition("t", 0, "a", payload("x")).is_ok());
  }
  ASSERT_TRUE(producer.send_to_partition("t", 1, "b", payload("y")).is_ok());

  Consumer consumer(broker_, "c1");
  ASSERT_TRUE(consumer.subscribe("g", {"t"}).is_ok());

  auto marks = consumer.partition_watermarks();
  ASSERT_EQ(marks.size(), 2u);
  std::int64_t total_lag = 0;
  for (const auto& mark : marks) {
    EXPECT_EQ(mark.position, 0);
    EXPECT_FALSE(mark.caught_up());
    total_lag += mark.lag();
  }
  EXPECT_EQ(total_lag, 4);
  EXPECT_FALSE(consumer.caught_up());

  // A partial poll advances some positions but cannot prove catch-up.
  auto batch = consumer.poll(2);
  ASSERT_TRUE(batch.is_ok());
  EXPECT_FALSE(consumer.caught_up());

  // Draining everything flips every watermark.
  while (true) {
    auto more = consumer.poll(10);
    ASSERT_TRUE(more.is_ok());
    if (more.value().empty()) break;
  }
  for (const auto& mark : consumer.partition_watermarks()) {
    EXPECT_TRUE(mark.caught_up()) << mark.tp.topic << "/" << mark.tp.partition;
    EXPECT_EQ(mark.lag(), 0);
  }
  EXPECT_TRUE(consumer.caught_up());

  // New appends immediately un-catch the consumer.
  ASSERT_TRUE(producer.send_to_partition("t", 1, "b", payload("z")).is_ok());
  EXPECT_FALSE(consumer.caught_up());
}

TEST_F(ProducerConsumerTest, EmptyAssignmentIsNeverCaughtUp) {
  Consumer consumer(broker_, "c1");
  EXPECT_TRUE(consumer.partition_watermarks().empty());
  EXPECT_FALSE(consumer.caught_up());
}

TEST_F(ProducerConsumerTest, SendToUnknownTopicFails) {
  Producer producer(broker_);
  EXPECT_FALSE(producer.send("ghost", "k", payload("x")).is_ok());
}

TEST_F(ProducerConsumerTest, SendToInvalidPartitionFails) {
  Producer producer(broker_);
  EXPECT_EQ(
      producer.send_to_partition("t", 9, "k", payload("x")).status().code(),
      StatusCode::kOutOfRange);
}

TEST_F(ProducerConsumerTest, SameKeyLandsInSamePartition) {
  Producer producer(broker_);
  auto a = producer.send("t", "stable-key", payload("1"));
  auto b = producer.send("t", "stable-key", payload("2"));
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().partition, b.value().partition);
  EXPECT_EQ(b.value().offset, a.value().offset + 1);
}

TEST_F(ProducerConsumerTest, PollEmptyTopicReturnsNothing) {
  Consumer consumer(broker_, "c1");
  ASSERT_TRUE(consumer.subscribe("g", {"t"}).is_ok());
  auto batch = consumer.poll(10);
  ASSERT_TRUE(batch.is_ok());
  EXPECT_TRUE(batch.value().empty());
}

TEST_F(ProducerConsumerTest, PollAdvancesPositionNoDuplicates) {
  Producer producer(broker_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(producer.send("t", std::string("k").append(std::to_string(i)),
                              payload(std::to_string(i)))
                    .is_ok());
  }
  Consumer consumer(broker_, "c1");
  ASSERT_TRUE(consumer.subscribe("g", {"t"}).is_ok());

  std::multiset<std::string> seen;
  while (true) {
    auto batch = consumer.poll(7);
    ASSERT_TRUE(batch.is_ok());
    if (batch.value().empty()) break;
    for (const auto& r : batch.value()) seen.insert(r.key);
  }
  EXPECT_EQ(seen.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(seen.count(std::string("k").append(std::to_string(i))), 1u) << i;
  }
  EXPECT_EQ(consumer.total_lag(), 0);
}

TEST_F(ProducerConsumerTest, StandaloneAssignAndSeek) {
  Producer producer(broker_);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        producer.send_to_partition("t", 0, "k", payload(std::to_string(i)))
            .is_ok());
  }
  Consumer consumer(broker_, "solo");
  ASSERT_TRUE(consumer.assign({TopicPartition{"t", 0}}).is_ok());
  auto first = consumer.poll(100);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().size(), 5u);

  // Seek back and re-read.
  ASSERT_TRUE(consumer.seek(TopicPartition{"t", 0}, 3).is_ok());
  auto again = consumer.poll(100);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().size(), 2u);
}

TEST_F(ProducerConsumerTest, SeekUnassignedPartitionFails) {
  Consumer consumer(broker_, "solo");
  ASSERT_TRUE(consumer.assign({TopicPartition{"t", 0}}).is_ok());
  EXPECT_FALSE(consumer.seek(TopicPartition{"t", 1}, 0).is_ok());
  EXPECT_FALSE(consumer.seek(TopicPartition{"t", 0}, -2).is_ok());
}

// Regression: seeking past the log end used to store the raw offset, so
// that partition reported NEGATIVE lag — which silently cancelled real
// lag from other partitions in total_lag() and could flip caught_up()
// while records were still unread. The position now clamps to end_offset.
TEST_F(ProducerConsumerTest, SeekPastLogEndClampsToEndOffset) {
  Producer producer(broker_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        producer.send_to_partition("t", 0, "k", payload(std::to_string(i)))
            .is_ok());
  }
  ASSERT_TRUE(producer.send_to_partition("t", 1, "k", payload("x")).is_ok());

  Consumer consumer(broker_, "solo");
  ASSERT_TRUE(
      consumer.assign({TopicPartition{"t", 0}, TopicPartition{"t", 1}})
          .is_ok());

  // Overshoot partition 0 (3 records) by a mile.
  ASSERT_TRUE(consumer.seek(TopicPartition{"t", 0}, 1'000'000).is_ok());
  EXPECT_EQ(consumer.position(TopicPartition{"t", 0}), 3);

  // Partition 1 still has its record unread: the -999997 phantom lag must
  // not cancel it.
  EXPECT_EQ(consumer.total_lag(), 1);
  EXPECT_FALSE(consumer.caught_up());
  auto batch = consumer.poll(100);
  ASSERT_TRUE(batch.is_ok());
  EXPECT_EQ(batch.value().size(), 1u);
  EXPECT_TRUE(consumer.caught_up());
}

TEST_F(ProducerConsumerTest, AssignAfterSubscribeFails) {
  Consumer consumer(broker_, "c");
  ASSERT_TRUE(consumer.subscribe("g", {"t"}).is_ok());
  EXPECT_EQ(consumer.assign({TopicPartition{"t", 0}}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ProducerConsumerTest, CommitAndRestore) {
  Producer producer(broker_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        producer.send_to_partition("t", 0, "k", payload("x")).is_ok());
  }
  {
    Consumer consumer(broker_, "c1");
    ASSERT_TRUE(consumer.subscribe("g", {"t"}).is_ok());
    auto batch = consumer.poll(4);
    ASSERT_TRUE(batch.is_ok());
    ASSERT_TRUE(consumer.commit().is_ok());
  }  // consumer leaves the group on destruction

  Consumer resumed(broker_, "c2");
  ASSERT_TRUE(resumed.subscribe("g", {"t"}).is_ok());
  ASSERT_TRUE(resumed.restore_committed().is_ok());
  auto rest = resumed.poll(100);
  ASSERT_TRUE(rest.is_ok());
  EXPECT_EQ(rest.value().size(), 6u);  // 10 - 4 already committed
}

TEST_F(ProducerConsumerTest, GroupMembersShareTheTopicDisjointly) {
  Producer producer(broker_);
  for (int i = 0; i < 40; ++i) {
    const std::string key = std::string("k").append(std::to_string(i));
    ASSERT_TRUE(producer
                    .send_to_partition("t", static_cast<std::uint32_t>(i % 2),
                                       key, payload("x"))
                    .is_ok());
  }
  Consumer c1(broker_, "m1"), c2(broker_, "m2");
  ASSERT_TRUE(c1.subscribe("g", {"t"}).is_ok());
  ASSERT_TRUE(c2.subscribe("g", {"t"}).is_ok());

  std::multiset<std::string> seen;
  for (Consumer* c : {&c1, &c2}) {
    while (true) {
      auto batch = c->poll(8);
      ASSERT_TRUE(batch.is_ok());
      if (batch.value().empty()) break;
      for (const auto& r : batch.value()) seen.insert(r.key);
    }
  }
  EXPECT_EQ(seen.size(), 40u);  // everything seen exactly once
}

TEST_F(ProducerConsumerTest, ProducerCountsBytesAndRecords) {
  Producer producer(broker_);
  ASSERT_TRUE(producer.send("t", "k", payload("hello")).is_ok());
  ASSERT_TRUE(producer.send("t", "k", payload("world!")).is_ok());
  EXPECT_EQ(producer.records_sent(), 2u);
  EXPECT_GT(producer.bytes_sent(), 11u);
}

TEST_F(ProducerConsumerTest, BoundStatsTrackLagAndWatermarkAge) {
#ifdef APPROXIOT_NO_STATS
  GTEST_SKIP() << "observability hooks compiled out";
#endif
  Producer producer(broker_);
  Consumer consumer(broker_, "c");
  ASSERT_TRUE(consumer.subscribe("g", {"t"}).is_ok());

  obs::StatsRegistry stats;
  consumer.bind_stats(stats, "flowqueue/c");
  obs::Gauge& lag = stats.gauge("flowqueue/c/lag");
  obs::Gauge& age = stats.gauge("flowqueue/c/watermark_age_us");
  obs::Gauge& caught_up = stats.gauge("flowqueue/c/caught_up");

  // Freshly subscribed against an empty topic: caught up, no lag.
  EXPECT_DOUBLE_EQ(lag.value(), 0.0);
  EXPECT_DOUBLE_EQ(age.value(), 0.0);
  EXPECT_DOUBLE_EQ(caught_up.value(), 1.0);
  EXPECT_DOUBLE_EQ(stats.gauge("flowqueue/c/assigned_partitions").value(),
                   2.0);

  // Appends with spread-out stream timestamps: lag counts records, age is
  // the stream-time distance from the next unread record to the newest.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(producer
                    .send_to_partition("t", 0, "k", payload("x"),
                                       SimTime::from_micros(1000 * i))
                    .is_ok());
  }
  consumer.update_stats();
  EXPECT_DOUBLE_EQ(lag.value(), 4.0);
  EXPECT_DOUBLE_EQ(age.value(), 3000.0);  // ts 0 .. 3000us unread
  EXPECT_DOUBLE_EQ(caught_up.value(), 0.0);

  // Gauges refresh at the end of every poll without explicit updates.
  ASSERT_TRUE(consumer.poll(3).is_ok());
  EXPECT_DOUBLE_EQ(lag.value(), 1.0);
  EXPECT_DOUBLE_EQ(age.value(), 0.0);  // only the newest record is unread
  EXPECT_EQ(stats.counter("flowqueue/c/records_polled").value(), 3u);

  ASSERT_TRUE(consumer.poll(10).is_ok());
  EXPECT_DOUBLE_EQ(lag.value(), 0.0);
  EXPECT_DOUBLE_EQ(caught_up.value(), 1.0);
  EXPECT_EQ(stats.counter("flowqueue/c/records_polled").value(), 4u);
}

TEST_F(ProducerConsumerTest, LagReflectsUnconsumedRecords) {
  Producer producer(broker_);
  Consumer consumer(broker_, "c");
  ASSERT_TRUE(consumer.subscribe("g", {"t"}).is_ok());
  EXPECT_EQ(consumer.total_lag(), 0);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(producer.send("t", std::to_string(i), payload("x")).is_ok());
  }
  EXPECT_EQ(consumer.total_lag(), 6);
  ASSERT_TRUE(consumer.poll(3).is_ok());
  EXPECT_EQ(consumer.total_lag(), 3);
}

}  // namespace
}  // namespace approxiot::flowqueue
