#include "analytics/extended.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/whsamp.hpp"

namespace approxiot::analytics {
namespace {

using core::ThetaStore;
using core::WeightedSample;

WeightedSample pair_of(SubStreamId id, double weight,
                       std::initializer_list<double> values) {
  WeightedSample p;
  p.weight = weight;
  for (double v : values) p.items.push_back(Item{id, v, 0});
  return p;
}

ThetaStore ranked_theta() {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(SubStreamId{1}, 1.0, {5.0}));
  theta.add_pair(SubStreamId{2}, pair_of(SubStreamId{2}, 2.0, {50.0}));
  theta.add_pair(SubStreamId{3}, pair_of(SubStreamId{3}, 1.0, {20.0, 30.0}));
  return theta;
}

TEST(TopKTest, RanksByEstimatedSum) {
  // Sums: S1 = 5, S2 = 100, S3 = 50.
  auto top = execute_topk(ranked_theta(), 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, SubStreamId{2});
  EXPECT_DOUBLE_EQ(top[0].sum.point, 100.0);
  EXPECT_EQ(top[1].id, SubStreamId{3});
  EXPECT_EQ(top[2].id, SubStreamId{1});
}

TEST(TopKTest, TruncatesToK) {
  auto top = execute_topk(ranked_theta(), 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, SubStreamId{2});
}

TEST(TopKTest, FewerStreamsThanK) {
  auto top = execute_topk(ranked_theta(), 10);
  EXPECT_EQ(top.size(), 3u);
}

TEST(TopKTest, EmptyTheta) {
  EXPECT_TRUE(execute_topk(ThetaStore{}, 5).empty());
  EXPECT_FALSE(topk_winner_is_significant({}));
}

TEST(TopKTest, FullySampledEntriesHaveZeroMargin) {
  auto top = execute_topk(ranked_theta(), 3);
  // All weights here imply c == ζ only for weight-1 pairs.
  EXPECT_EQ(top[2].sum.margin, 0.0);  // S1 (weight 1: exact)
}

TEST(TopKTest, SignificanceDetection) {
  // Clear winner: exact strata, disjoint sums.
  auto top = execute_topk(ranked_theta(), 2);
  EXPECT_TRUE(topk_winner_is_significant(top));

  // Same point estimates -> overlapping (zero-width) intervals tie.
  ThetaStore tie;
  tie.add_pair(SubStreamId{1}, pair_of(SubStreamId{1}, 1.0, {10.0}));
  tie.add_pair(SubStreamId{2}, pair_of(SubStreamId{2}, 1.0, {10.0}));
  EXPECT_FALSE(topk_winner_is_significant(execute_topk(tie, 2)));
}

TEST(TopKTest, RankingSurvivesSampling) {
  // Build three strata with well-separated sums, sample at 10%, and
  // check the top-k order still matches the truth.
  Rng rng(31);
  std::vector<Item> items;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    for (int i = 0; i < 3000; ++i) {
      items.push_back(Item{SubStreamId{s},
                           static_cast<double>(s * s) + rng.next_double(), 0});
    }
  }
  core::WHSampler sampler(Rng(77));
  ThetaStore theta;
  core::SampledBundle sampled;
  sampler.sample(items, 900, core::WeightMap{}, sampled);
  theta.add(sampled);

  auto top = execute_topk(theta, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, SubStreamId{3});
  EXPECT_EQ(top[1].id, SubStreamId{2});
  EXPECT_EQ(top[2].id, SubStreamId{1});
}

TEST(QuantileTest, ValidatesRange) {
  EXPECT_FALSE(execute_quantile(ranked_theta(), -0.1).is_ok());
  EXPECT_FALSE(execute_quantile(ranked_theta(), 1.1).is_ok());
}

TEST(QuantileTest, EmptyThetaFails) {
  EXPECT_FALSE(execute_quantile(ThetaStore{}, 0.5).is_ok());
}

TEST(QuantileTest, UnweightedMedian) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1},
                 pair_of(SubStreamId{1}, 1.0, {1, 2, 3, 4, 5}));
  auto median = execute_median(theta);
  ASSERT_TRUE(median.is_ok());
  EXPECT_DOUBLE_EQ(median.value(), 3.0);
}

TEST(QuantileTest, WeightsShiftTheQuantile) {
  // Value 10 stands for 9 originals, value 1 for one: the median of the
  // reconstructed population {1, 10×9} is 10.
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(SubStreamId{1}, 1.0, {1.0}));
  theta.add_pair(SubStreamId{1}, pair_of(SubStreamId{1}, 9.0, {10.0}));
  auto median = execute_median(theta);
  ASSERT_TRUE(median.is_ok());
  EXPECT_DOUBLE_EQ(median.value(), 10.0);
}

TEST(QuantileTest, ExtremesReturnMinAndMax) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1},
                 pair_of(SubStreamId{1}, 1.0, {7.0, 3.0, 9.0}));
  EXPECT_DOUBLE_EQ(execute_quantile(theta, 0.0).value(), 3.0);
  EXPECT_DOUBLE_EQ(execute_quantile(theta, 1.0).value(), 9.0);
}

TEST(QuantileTest, ApproximatesPopulationQuantileUnderSampling) {
  // Uniform[0,1000) population, 5% sample: the weighted quantile should
  // land near the true quantile.
  Rng rng(41);
  std::vector<Item> items;
  for (int i = 0; i < 20000; ++i) {
    items.push_back(Item{SubStreamId{1}, rng.next_double() * 1000.0, 0});
  }
  core::WHSampler sampler(Rng(43));
  ThetaStore theta;
  core::SampledBundle sampled;
  sampler.sample(items, 1000, core::WeightMap{}, sampled);
  theta.add(sampled);

  for (double q : {0.1, 0.5, 0.9}) {
    auto estimate = execute_quantile(theta, q);
    ASSERT_TRUE(estimate.is_ok());
    EXPECT_NEAR(estimate.value(), q * 1000.0, 60.0) << "q=" << q;
  }
}

}  // namespace
}  // namespace approxiot::analytics
