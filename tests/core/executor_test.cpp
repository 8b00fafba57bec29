// SamplingExecutor: the one execution layer under every sampling path.
//
// The contract has three legs, each pinned here:
//   1. a 1-worker pooled lane is BIT-IDENTICAL to the sequential
//      WHSampler — same RNG consumption, same samples, same weights,
//      call after call on one long-lived lane;
//   2. inline vs pool-dispatched execution of the same lane produce
//      identical output (the shard assignment is a pure function of item
//      position), so dispatch is a pure performance decision;
//   3. with w > 1 workers the Eq. 8 invariant W^out · c̃ = W^in · c holds
//      exactly for every sub-stream that kept at least one item, across
//      randomized intervals.
#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

TEST(SamplingExecutorTest, OneWorkerLaneBitIdenticalToWHSampler) {
  PooledSamplingExecutor::Options options;
  options.workers_per_lane = 1;
  PooledSamplingExecutor executor(options);

  const std::uint64_t seed = 20180701;
  WHSampler reference(Rng(seed), WHSampConfig{});
  auto lane = executor.create_lane(Rng(seed), WHSampConfig{});

  // Many intervals on the SAME lane: cross-call RNG state must track the
  // sequential sampler's exactly, not just the first call.
  Rng workload(7);
  for (int interval = 0; interval < 50; ++interval) {
    const auto items = random_items(workload, 400, 4);
    const std::size_t budget = workload.next_below(60);
    WeightMap w_in;
    w_in.set(SubStreamId{1}, 1.0 + workload.next_double());

    SampledBundle expected;
    reference.sample(items, budget, w_in, expected);
    SampledBundle got;
    lane->sample(items, budget, w_in, got);
    expect_bundles_identical(expected, got);
  }
}

TEST(SamplingExecutorTest, SequentialExecutorLaneIsWHSampler) {
  WHSampler reference(Rng(99), WHSampConfig{});
  auto lane = sequential_executor().create_lane(Rng(99), WHSampConfig{});
  EXPECT_EQ(lane->workers(), 1u);

  Rng workload(3);
  const auto items = random_items(workload, 500, 3);
  SampledBundle expected;
  SampledBundle got;
  reference.sample(items, 40, WeightMap{}, expected);
  lane->sample(items, 40, WeightMap{}, got);
  expect_bundles_identical(expected, got);
}

TEST(SamplingExecutorTest, InlineAndPooledDispatchProduceIdenticalOutput) {
  // Same seeds, same workers; one executor always dispatches to a real
  // pool, the other never does. Shard assignment is position % workers in
  // both, so the outputs must match item for item.
  PooledSamplingExecutor::Options pooled_options;
  pooled_options.workers_per_lane = 3;
  pooled_options.pool_threads = 2;  // force a pool even on 1 core
  pooled_options.min_items_to_dispatch = 0;
  PooledSamplingExecutor pooled(pooled_options);
  ASSERT_TRUE(pooled.has_pool());

  PooledSamplingExecutor::Options inline_options;
  inline_options.workers_per_lane = 3;
  inline_options.min_items_to_dispatch = SIZE_MAX;  // never dispatch
  PooledSamplingExecutor inlined(inline_options);

  auto pooled_lane = pooled.create_lane(Rng(5), WHSampConfig{});
  auto inline_lane = inlined.create_lane(Rng(5), WHSampConfig{});
  EXPECT_EQ(pooled_lane->workers(), 3u);

  Rng workload(11);
  SampledBundle inline_out;
  SampledBundle pooled_out;
  for (int interval = 0; interval < 20; ++interval) {
    const auto items = random_items(workload, 2000, 5);
    const std::size_t budget = workload.next_below(200);
    inline_lane->sample(items, budget, WeightMap{}, inline_out);
    pooled_lane->sample(items, budget, WeightMap{}, pooled_out);
    expect_bundles_identical(inline_out, pooled_out);
  }
}

TEST(SamplingExecutorTest, MultiWorkerInvariantExactOver100Intervals) {
  PooledSamplingExecutor::Options options;
  options.workers_per_lane = 4;
  options.pool_threads = 2;
  options.min_items_to_dispatch = 0;  // exercise the cross-thread path
  PooledSamplingExecutor executor(options);
  auto lane = executor.create_lane(Rng(42), WHSampConfig{});

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
    lane->sample(items, budget, w_in, out);

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

TEST(SamplingExecutorTest, InterleavedSubStreamsShardEvenly) {
  // Sharding is by WITHIN-stratum position: a strictly interleaved input
  // (the shape a round-robin upstream merge produces) must still spread
  // every sub-stream across all shards. Sharding by global position
  // would send every stream-1 item to shard 0 here and halve its kept
  // sample.
  PooledSamplingExecutor::Options options;
  options.workers_per_lane = 2;
  PooledSamplingExecutor executor(options);
  auto lane = executor.create_lane(Rng(17), WHSampConfig{});

  std::vector<Item> items;
  for (int i = 0; i < 500; ++i) {
    items.push_back(Item{SubStreamId{1}, 1.0, 0});
    items.push_back(Item{SubStreamId{2}, 2.0, 0});
  }
  SampledBundle out;
  lane->sample(items, 100, WeightMap{}, out);
  for (std::uint64_t s = 1; s <= 2; ++s) {
    EXPECT_EQ(out.sample.at(SubStreamId{s}).size(), 50u) << "stream " << s;
    EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{s}), 10.0) << "stream " << s;
  }
}

TEST(SamplingExecutorTest, LaneClampsShardsToCapacity) {
  // More workers than reservoir slots: the lane's shard groups clamp
  // exactly like WorkerGroup, so a sub-stream with any capacity always
  // keeps at least one item (c̃ > 0 whenever c > 0).
  PooledSamplingExecutor::Options options;
  options.workers_per_lane = 4;
  PooledSamplingExecutor executor(options);
  auto lane = executor.create_lane(Rng(23), WHSampConfig{});

  const std::vector<Item> items = {Item{SubStreamId{1}, 1.0, 0},
                                   Item{SubStreamId{1}, 2.0, 0},
                                   Item{SubStreamId{1}, 3.0, 0}};
  SampledBundle out;
  lane->sample(items, 2, WeightMap{}, out);
  EXPECT_EQ(out.sample.at(SubStreamId{1}).size(), 2u);
  EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{1}), 1.5);
}

TEST(SamplingExecutorTest, RejectsAlgorithmLWithMultipleWorkers) {
  PooledSamplingExecutor::Options options;
  options.workers_per_lane = 2;
  PooledSamplingExecutor executor(options);
  WHSampConfig config;
  config.reservoir_algorithm = sampling::ReservoirAlgorithm::kAlgorithmL;
  // Sharded slices run Algorithm R; a silent substitution would hand the
  // caller a different sampling algorithm than configured.
  EXPECT_THROW((void)executor.create_lane(Rng(1), config),
               std::invalid_argument);
  // One worker is the sequential path and supports every algorithm.
  PooledSamplingExecutor::Options single;
  single.workers_per_lane = 1;
  PooledSamplingExecutor sequential(single);
  EXPECT_NO_THROW((void)sequential.create_lane(Rng(1), config));
}

TEST(SamplingExecutorTest, ZeroWorkersCoercedToOne) {
  PooledSamplingExecutor::Options options;
  options.workers_per_lane = 0;
  PooledSamplingExecutor executor(options);
  EXPECT_EQ(executor.workers_per_lane(), 1u);
  EXPECT_FALSE(executor.has_pool());
}

TEST(SamplingExecutorTest, EmptyInputYieldsEmptyBundle) {
  PooledSamplingExecutor::Options options;
  options.workers_per_lane = 2;
  PooledSamplingExecutor executor(options);
  auto lane = executor.create_lane(Rng(1), WHSampConfig{});
  SampledBundle out;
  lane->sample({}, 10, WeightMap{}, out);
  EXPECT_TRUE(out.sample.empty());
  EXPECT_TRUE(out.w_out.empty());
}

}  // namespace
}  // namespace approxiot::core
