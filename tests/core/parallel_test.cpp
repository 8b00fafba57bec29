// §III-E as a single-threaded model: WorkerGroup's shard/offer/merge
// protocol and ParallelSampler built on it. The sharded-executor contract
// (bit-identity at one worker, exact Eq. 8 at w > 1) is pinned in
// executor_test.cpp; the output at w ∈ {1, 2, 4, 8} is pinned by golden
// checksums in stream_golden_test.cpp.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/estimators.hpp"
#include "core/theta_store.hpp"

namespace approxiot::core {
namespace {

std::vector<Item> n_items(SubStreamId id, std::size_t n, double value = 1.0) {
  std::vector<Item> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Item{id, value, 0});
  return out;
}

TEST(WorkerGroupTest, CapacitySplitSumsToTotal) {
  WorkerGroup group(4, 10, Rng(1));
  EXPECT_EQ(group.worker_count(), 4u);
  group.shard(n_items(SubStreamId{1}, 1000));
  auto merged = group.merge();
  EXPECT_EQ(merged.sample.size(), 10u);  // 3+3+2+2
  EXPECT_EQ(merged.total_count, 1000u);
}

TEST(WorkerGroupTest, ZeroWorkersCoercedToOne) {
  WorkerGroup group(0, 5, Rng(2));
  EXPECT_EQ(group.worker_count(), 1u);
}

TEST(WorkerGroupTest, WeightInvariantAfterMerge) {
  // W_mult * |merged sample| == total items observed (Eq. 8 per §III-E).
  for (std::size_t workers : {1u, 2u, 3u, 8u}) {
    WorkerGroup group(workers, 12, Rng(workers));
    group.shard(n_items(SubStreamId{1}, 600));
    auto merged = group.merge();
    EXPECT_DOUBLE_EQ(
        merged.weight_multiplier * static_cast<double>(merged.sample.size()),
        600.0)
        << "workers=" << workers;
  }
}

TEST(WorkerGroupTest, UnderfullKeepsWeightOne) {
  WorkerGroup group(4, 100, Rng(3));
  group.shard(n_items(SubStreamId{1}, 20));
  auto merged = group.merge();
  EXPECT_EQ(merged.sample.size(), 20u);
  EXPECT_DOUBLE_EQ(merged.weight_multiplier, 1.0);
}

TEST(WorkerGroupTest, ClampsWorkersToCapacity) {
  // More workers than reservoir slots would leave some workers with a
  // zero-capacity reservoir — a sub-stream could then merge to c̃ = 0
  // while c > 0. The group clamps instead: every active worker holds at
  // least one slot.
  WorkerGroup group(8, 3, Rng(5));
  EXPECT_EQ(group.worker_count(), 3u);
  group.shard(n_items(SubStreamId{1}, 90));
  auto merged = group.merge();
  EXPECT_EQ(merged.sample.size(), 3u);
  EXPECT_EQ(merged.total_count, 90u);
  EXPECT_DOUBLE_EQ(merged.weight_multiplier, 30.0);
}

TEST(WorkerGroupTest, ZeroCapacityCountsWithoutKeepingOrDividing) {
  // Capacity 0 (a starved sub-stream): one active worker that only
  // counts; the multiplier stays 1 instead of dividing by c̃ = 0.
  WorkerGroup group(4, 0, Rng(6));
  EXPECT_EQ(group.worker_count(), 1u);
  group.shard(n_items(SubStreamId{1}, 10));
  auto merged = group.merge();
  EXPECT_TRUE(merged.sample.empty());
  EXPECT_EQ(merged.total_count, 10u);
  EXPECT_DOUBLE_EQ(merged.weight_multiplier, 1.0);
}

TEST(WorkerGroupTest, ShardsBeyondActiveWorkersStillCount) {
  // Items are dealt over the full requested width; shards beyond the
  // clamped worker count contribute to c_i without keeping items, so the
  // Eq. 8 counters stay exact under position-based sharding.
  WorkerGroup group(4, 2, Rng(7));
  EXPECT_EQ(group.worker_count(), 2u);
  EXPECT_EQ(group.shard_width(), 4u);
  // Two calls: the deal continues from the position the first one left.
  const auto items = n_items(SubStreamId{1}, 8);
  group.shard({items.data(), 3});
  group.shard({items.data() + 3, 5});
  auto merged = group.merge();
  EXPECT_EQ(merged.total_count, 8u);
  EXPECT_EQ(merged.sample.size(), 2u);  // workers 0 and 1 kept one each
  EXPECT_DOUBLE_EQ(merged.weight_multiplier, 4.0);
}

TEST(WorkerGroupTest, RearmKeepsGroupReusableAcrossIntervals) {
  WorkerGroup group(2, 6, Rng(8));
  group.shard(n_items(SubStreamId{1}, 100));
  (void)group.merge();
  group.rearm(2, 4, Rng(9));
  group.shard(n_items(SubStreamId{1}, 50));
  auto merged = group.merge();
  EXPECT_EQ(merged.total_count, 50u);
  EXPECT_EQ(merged.sample.size(), 4u);
  EXPECT_DOUBLE_EQ(merged.weight_multiplier, 12.5);
}

TEST(WorkerGroupTest, MergeResetsForNextInterval) {
  WorkerGroup group(2, 4, Rng(4));
  group.shard(n_items(SubStreamId{1}, 100));
  (void)group.merge();
  group.shard(n_items(SubStreamId{1}, 50));
  auto merged = group.merge();
  EXPECT_EQ(merged.total_count, 50u);
}

TEST(ParallelSamplerTest, MatchesSequentialSemantics) {
  ParallelSampler sampler(4, Rng(5));
  WeightMap w_in;
  w_in.set(SubStreamId{1}, 2.0);

  std::vector<Item> items = n_items(SubStreamId{1}, 1000);
  auto more = n_items(SubStreamId{2}, 10);
  items.insert(items.end(), more.begin(), more.end());

  SampledBundle out;
  sampler.sample(items, 20, w_in, out);
  // Equal allocation: 10 slots each.
  EXPECT_EQ(out.sample.at(SubStreamId{1}).size(), 10u);
  EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{1}), 2.0 * 100.0);
  // Sub-stream 2 fits entirely: weight unchanged.
  EXPECT_EQ(out.sample.at(SubStreamId{2}).size(), 10u);
  EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{2}), 1.0);
}

TEST(ParallelSamplerTest, LargeStratumPreservesInvariant) {
  ParallelSampler sampler(4, Rng(6));
  SampledBundle out;
  sampler.sample(n_items(SubStreamId{1}, 50000), 100, WeightMap{}, out);
  const double w = out.w_out.get(SubStreamId{1});
  const double kept = static_cast<double>(out.sample.at(SubStreamId{1}).size());
  EXPECT_DOUBLE_EQ(w * kept, 50000.0);
}

TEST(ParallelSamplerTest, CountEstimateExactViaTheta) {
  ParallelSampler sampler(3, Rng(7));
  SampledBundle out;
  sampler.sample(n_items(SubStreamId{1}, 3000), 30, WeightMap{}, out);
  ThetaStore theta;
  theta.add(out);
  EXPECT_NEAR(theta.estimated_original_count(SubStreamId{1}), 3000.0, 1e-9);
}

TEST(ParallelSamplerTest, SumUnbiasedOverTrials) {
  // The merged parallel sample must estimate sums without bias, like the
  // single-reservoir path.
  const std::size_t n = 1000;
  double total = 0.0;
  const int trials = 150;
  for (int t = 0; t < trials; ++t) {
    ParallelSampler sampler(4, Rng(100 + static_cast<std::uint64_t>(t)));
    std::vector<Item> items;
    double truth = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = static_cast<double>(i % 17);
      items.push_back(Item{SubStreamId{1}, v, 0});
      truth += v;
    }
    ThetaStore theta;
    SampledBundle sampled;
    sampler.sample(items, 50, WeightMap{}, sampled);
    theta.add(sampled);
    total += estimate_total_sum(theta) / truth;
  }
  EXPECT_NEAR(total / trials, 1.0, 0.05);
}

TEST(ParallelSamplerTest, EmptyInput) {
  ParallelSampler sampler(2, Rng(8));
  SampledBundle out;
  sampler.sample({}, 10, WeightMap{}, out);
  EXPECT_TRUE(out.sample.empty());
  EXPECT_TRUE(out.w_out.empty());
}

TEST(ParallelSamplerTest, ZeroWorkersCoercedToOne) {
  ParallelSampler sampler(0, Rng(9));
  EXPECT_EQ(sampler.workers(), 1u);
  SampledBundle out;
  sampler.sample(n_items(SubStreamId{1}, 10), 5, WeightMap{}, out);
  EXPECT_EQ(out.sample.at(SubStreamId{1}).size(), 5u);
}

}  // namespace
}  // namespace approxiot::core
