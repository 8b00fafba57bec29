// Concurrency stress for the Broker's consumer-group coordinator:
// join/leave/commit hammered from many threads must never leave a
// partition unowned or doubly-owned once the dust settles, and
// generations must move strictly forward.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "flowqueue/broker.hpp"

namespace approxiot::flowqueue {
namespace {

constexpr char kGroup[] = "stress-group";
constexpr char kTopicA[] = "stress-a";
constexpr char kTopicB[] = "stress-b";
constexpr std::uint32_t kPartitionsA = 8;
constexpr std::uint32_t kPartitionsB = 5;

/// Asserts every partition of both topics has exactly one owner among
/// `members` (queried single-threaded, between rounds).
void expect_exactly_one_owner(Broker& broker,
                              const std::set<std::string>& members) {
  std::map<TopicPartition, int> owners;
  for (const std::string& member : members) {
    auto assignment = broker.assignment(kGroup, member);
    ASSERT_TRUE(assignment.is_ok()) << "member " << member;
    for (const TopicPartition& tp : assignment.value()) {
      ++owners[tp];
    }
  }
  std::size_t total = 0;
  for (const auto& [tp, count] : owners) {
    EXPECT_EQ(count, 1) << tp.topic << "/" << tp.partition
                        << " owned " << count << " times";
    total += static_cast<std::size_t>(count);
  }
  if (!members.empty()) {
    EXPECT_EQ(total, kPartitionsA + kPartitionsB);
  }
}

TEST(BrokerStressTest, RebalanceStormKeepsSinglePartitionOwnership) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic(kTopicA, kPartitionsA).is_ok());
  ASSERT_TRUE(broker.create_topic(kTopicB, kPartitionsB).is_ok());

  constexpr int kThreadCount = 6;
  constexpr int kRounds = 15;
  const std::vector<std::string> topics = {kTopicA, kTopicB};

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreadCount; ++t) {
      threads.emplace_back([&broker, &topics, t, round] {
        const std::string member = std::string("m").append(std::to_string(t));
        // A burst of churn: join, commit a few offsets, maybe bounce.
        auto joined = broker.join_group(kGroup, member, topics);
        ASSERT_TRUE(joined.is_ok());
        for (const TopicPartition& tp : joined.value()) {
          ASSERT_TRUE(
              broker.commit_offset(kGroup, tp, Offset{round}).is_ok());
        }
        if ((t + round) % 3 == 0) {
          ASSERT_TRUE(broker.leave_group(kGroup, member).is_ok());
          ASSERT_TRUE(broker.join_group(kGroup, member, topics).is_ok());
        }
        // Threads whose index parity matches the round end outside the
        // group, so membership varies round to round.
        if (t % 2 == round % 2) {
          ASSERT_TRUE(broker.leave_group(kGroup, member).is_ok());
        }
      });
    }
    for (auto& thread : threads) thread.join();

    // Deterministic post-churn membership for this round.
    std::set<std::string> members;
    for (int t = 0; t < kThreadCount; ++t) {
      if (t % 2 != round % 2) {
        members.insert(std::string("m").append(std::to_string(t)));
      }
    }
    expect_exactly_one_owner(broker, members);
  }
}

TEST(BrokerStressTest, GenerationAdvancesMonotonicallyUnderChurn) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic(kTopicA, kPartitionsA).is_ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread watcher([&] {
    std::uint64_t last = 0;
    while (!stop.load()) {
      const std::uint64_t gen = broker.group_generation(kGroup);
      if (gen < last) violation.store(true);
      last = gen;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&broker, t] {
      const std::string member = std::string("g").append(std::to_string(t));
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(
            broker.join_group(kGroup, member, {kTopicA}).is_ok());
        ASSERT_TRUE(broker.leave_group(kGroup, member).is_ok());
      }
    });
  }
  for (auto& thread : churners) thread.join();
  stop.store(true);
  watcher.join();

  EXPECT_FALSE(violation.load());
  // 4 threads x 50 join+leave pairs = 400 rebalances at least.
  EXPECT_GE(broker.group_generation(kGroup), 400u);
}

TEST(BrokerStressTest, ConcurrentCommitsLandOnTheLatestOwner) {
  Broker broker;
  ASSERT_TRUE(broker.create_topic(kTopicA, kPartitionsA).is_ok());

  // One stable member owns everything; many threads commit concurrently.
  auto joined = broker.join_group(kGroup, "stable", {kTopicA});
  ASSERT_TRUE(joined.is_ok());
  ASSERT_EQ(joined.value().size(), kPartitionsA);

  std::vector<std::thread> committers;
  for (int t = 0; t < 4; ++t) {
    committers.emplace_back([&broker, t] {
      for (int i = 1; i <= 100; ++i) {
        const TopicPartition tp{kTopicA,
                                static_cast<std::uint32_t>(t * 2 % 8)};
        ASSERT_TRUE(
            broker.commit_offset(kGroup, tp, Offset{i}).is_ok());
      }
    });
  }
  for (auto& thread : committers) thread.join();

  // Every hammered partition ends at the max committed offset.
  for (std::uint32_t p : {0u, 2u, 4u, 6u}) {
    EXPECT_EQ(broker.committed_offset(kGroup, TopicPartition{kTopicA, p}),
              Offset{100});
  }
}

}  // namespace
}  // namespace approxiot::flowqueue
