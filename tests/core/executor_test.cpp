// The sampling-executor contract of §III-E, carried by ParallelSampler
// (the single-threaded model of within-node sharding) now that no pooled
// executor exists. Two legs are pinned here:
//   1. at one worker the sampler is BIT-IDENTICAL to the sequential
//      WHSampler — same RNG consumption, same samples, same weights, call
//      after call on one long-lived sampler;
//   2. with w > 1 workers the Eq. 8 invariant W^out · c̃ = W^in · c holds
//      exactly for every sub-stream that kept at least one item, across
//      randomized intervals, with sub-streams sharded by within-stratum
//      position and shards clamped to the reservoir capacity.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/parallel.hpp"
#include "core/whsamp.hpp"

namespace approxiot::core {
namespace {

std::vector<Item> random_items(Rng& rng, std::size_t max_items,
                               std::uint64_t streams) {
  const std::size_t n = rng.next_below(max_items + 1);
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(Item{SubStreamId{1 + rng.next_below(streams)},
                         rng.next_double() * 10.0,
                         static_cast<std::int64_t>(i)});
  }
  return items;
}

void expect_bundles_identical(const SampledBundle& a, const SampledBundle& b) {
  EXPECT_TRUE(a.w_out == b.w_out);
  ASSERT_EQ(a.sample.size(), b.sample.size());
  auto b_it = b.sample.begin();
  for (const auto& [id, items] : a.sample) {
    EXPECT_EQ(id, b_it->first);
    ASSERT_EQ(items.size(), b_it->second.size()) << "stream " << id;
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(items[i], b_it->second[i]) << "stream " << id << " item " << i;
    }
    ++b_it;
  }
}

TEST(ParallelSamplerTest, OneWorkerBitIdenticalToWHSampler) {
  const std::uint64_t seed = 20180701;
  WHSampler reference(Rng(seed), WHSampConfig{});
  ParallelSampler sampler(1, Rng(seed));

  // Many intervals on the SAME sampler: cross-call RNG state must track
  // the sequential sampler's exactly, not just the first call.
  Rng workload(7);
  for (int interval = 0; interval < 50; ++interval) {
    const auto items = random_items(workload, 400, 4);
    const std::size_t budget = workload.next_below(60);
    WeightMap w_in;
    w_in.set(SubStreamId{1}, 1.0 + workload.next_double());

    SampledBundle expected;
    reference.sample(items, budget, w_in, expected);
    SampledBundle got;
    sampler.sample(items, budget, w_in, got);
    expect_bundles_identical(expected, got);
  }
}

TEST(ParallelSamplerTest, MultiWorkerInvariantExactOver100Intervals) {
  ParallelSampler sampler(4, Rng(42));
  Rng workload(123);
  for (int interval = 0; interval < 100; ++interval) {
    const auto items = random_items(workload, 3000, 5);
    std::map<SubStreamId, std::uint64_t> counts;
    for (const Item& item : items) ++counts[item.source];

    WeightMap w_in;
    w_in.set(SubStreamId{1}, 2.5);
    w_in.set(SubStreamId{2}, 1.0 + workload.next_double());

    const std::size_t budget = 20 + workload.next_below(400);
    SampledBundle out;
    sampler.sample(items, budget, w_in, out);

    ASSERT_EQ(out.sample.size(), counts.size());
    for (const auto& [id, kept] : out.sample) {
      if (kept.empty()) continue;
      // Eq. 8: W^out · c̃ = W^in · c, exactly.
      EXPECT_DOUBLE_EQ(
          out.w_out.get(id) * static_cast<double>(kept.size()),
          w_in.get(id) * static_cast<double>(counts.at(id)))
          << "interval " << interval << " stream " << id;
    }
  }
}

TEST(ParallelSamplerTest, InterleavedSubStreamsShardEvenly) {
  // Sharding is by WITHIN-stratum position: a strictly interleaved input
  // (the shape a round-robin upstream merge produces) must still spread
  // every sub-stream across all shards. Sharding by global position
  // would send every stream-1 item to shard 0 here and halve its kept
  // sample.
  ParallelSampler sampler(2, Rng(17));
  std::vector<Item> items;
  for (int i = 0; i < 500; ++i) {
    items.push_back(Item{SubStreamId{1}, 1.0, 0});
    items.push_back(Item{SubStreamId{2}, 2.0, 0});
  }
  SampledBundle out;
  sampler.sample(items, 100, WeightMap{}, out);
  for (std::uint64_t s = 1; s <= 2; ++s) {
    EXPECT_EQ(out.sample.at(SubStreamId{s}).size(), 50u) << "stream " << s;
    EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{s}), 10.0) << "stream " << s;
  }
}

TEST(ParallelSamplerTest, ClampsShardsToCapacity) {
  // More workers than reservoir slots: the group clamps, so a sub-stream
  // with any capacity always keeps at least one item (c̃ > 0 whenever
  // c > 0).
  ParallelSampler sampler(4, Rng(23));
  const std::vector<Item> items = {Item{SubStreamId{1}, 1.0, 0},
                                   Item{SubStreamId{1}, 2.0, 0},
                                   Item{SubStreamId{1}, 3.0, 0}};
  SampledBundle out;
  sampler.sample(items, 2, WeightMap{}, out);
  EXPECT_EQ(out.sample.at(SubStreamId{1}).size(), 2u);
  EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{1}), 1.5);
}

}  // namespace
}  // namespace approxiot::core
