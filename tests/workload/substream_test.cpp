#include "workload/substream.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace approxiot::workload {
namespace {

SubStreamSpec spec(std::uint64_t id, double rate, double mean = 1.0) {
  SubStreamSpec s;
  s.id = SubStreamId{id};
  s.name = std::string("s").append(std::to_string(id));
  s.values = std::make_shared<stats::GaussianDistribution>(mean, 0.0);
  s.rate_items_per_s = rate;
  return s;
}

TEST(StreamGeneratorTest, ValidatesSpecs) {
  SubStreamSpec no_dist;
  no_dist.id = SubStreamId{1};
  EXPECT_THROW(StreamGenerator({no_dist}, 1), std::invalid_argument);

  auto negative = spec(1, -5.0);
  EXPECT_THROW(StreamGenerator({negative}, 1), std::invalid_argument);
}

TEST(StreamGeneratorTest, TickProducesRateTimesDt) {
  StreamGenerator gen({spec(1, 1000.0)}, 42);
  auto items = gen.tick(SimTime::zero(), SimTime::from_seconds(1.0));
  EXPECT_EQ(items.size(), 1000u);
  for (const Item& item : items) {
    EXPECT_EQ(item.source, SubStreamId{1});
    EXPECT_EQ(item.created_at_us, 0);
  }
}

TEST(StreamGeneratorTest, FractionalRatesAccumulate) {
  StreamGenerator gen({spec(1, 2.5)}, 42);
  std::size_t total = 0;
  for (int i = 0; i < 100; ++i) {
    total += gen.tick(SimTime::zero(), SimTime::from_seconds(1.0)).size();
  }
  EXPECT_EQ(total, 250u);  // exactly rate * time in the long run
}

TEST(StreamGeneratorTest, MultipleSubStreamsMix) {
  StreamGenerator gen({spec(1, 100.0), spec(2, 300.0)}, 42);
  auto items = gen.tick(SimTime::zero(), SimTime::from_seconds(1.0));
  std::size_t s1 = 0, s2 = 0;
  for (const Item& item : items) {
    (item.source == SubStreamId{1} ? s1 : s2)++;
  }
  EXPECT_EQ(s1, 100u);
  EXPECT_EQ(s2, 300u);
  EXPECT_DOUBLE_EQ(gen.total_rate(), 400.0);
}

TEST(StreamGeneratorTest, DeterministicForSameSeed) {
  StreamGenerator a({spec(1, 10.0, 5.0)}, 7);
  StreamGenerator b({spec(1, 10.0, 5.0)}, 7);
  auto items_a = a.tick(SimTime::zero(), SimTime::from_seconds(1.0));
  auto items_b = b.tick(SimTime::zero(), SimTime::from_seconds(1.0));
  ASSERT_EQ(items_a.size(), items_b.size());
  for (std::size_t i = 0; i < items_a.size(); ++i) {
    EXPECT_EQ(items_a[i].value, items_b[i].value);
  }
}

TEST(StreamGeneratorTest, GenerateExactCount) {
  StreamGenerator gen({spec(1, 10.0, 3.0)}, 7);
  auto items = gen.generate(SubStreamId{1}, 17, SimTime::from_seconds(2.0));
  EXPECT_EQ(items.size(), 17u);
  EXPECT_EQ(items[0].created_at_us, 2'000'000);
  EXPECT_THROW(gen.generate(SubStreamId{99}, 1), std::invalid_argument);
}

TEST(StreamGeneratorTest, SetRateChangesOutput) {
  StreamGenerator gen({spec(1, 100.0)}, 7);
  gen.set_rate(SubStreamId{1}, 500.0);
  auto items = gen.tick(SimTime::zero(), SimTime::from_seconds(1.0));
  EXPECT_EQ(items.size(), 500u);
  EXPECT_THROW(gen.set_rate(SubStreamId{99}, 1.0), std::invalid_argument);
  EXPECT_THROW(gen.set_rate(SubStreamId{1}, -1.0), std::invalid_argument);
}

TEST(ShardBySubstreamTest, AffinityAndCompleteness) {
  std::vector<Item> items;
  for (std::uint64_t s = 0; s < 6; ++s) {
    for (int i = 0; i < 10; ++i) {
      items.push_back(Item{SubStreamId{s}, 1.0, 0});
    }
  }
  auto shards = shard_by_substream(items, 4);
  ASSERT_EQ(shards.size(), 4u);
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  EXPECT_EQ(total, items.size());
  // All items of one sub-stream land on one leaf.
  for (const auto& shard : shards) {
    for (const Item& item : shard) {
      EXPECT_EQ(item.source.value() % 4,
                static_cast<std::uint64_t>(&shard - shards.data()));
    }
  }
  EXPECT_THROW(shard_by_substream(items, 0), std::invalid_argument);
}

}  // namespace
}  // namespace approxiot::workload
