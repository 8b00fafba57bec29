#include <gtest/gtest.h>

#include "core/estimators.hpp"
#include "core/theta_store.hpp"

namespace approxiot::core {
namespace {

WeightedSample pair_of(double weight, std::initializer_list<double> values) {
  WeightedSample p;
  p.weight = weight;
  for (double v : values) p.items.push_back(Item{SubStreamId{0}, v, 0});
  return p;
}

TEST(ThetaStoreTest, EmptyStore) {
  ThetaStore theta;
  EXPECT_TRUE(theta.empty());
  EXPECT_TRUE(theta.sub_streams().empty());
  EXPECT_TRUE(theta.pairs(SubStreamId{1}).empty());
  EXPECT_EQ(theta.sampled_count(SubStreamId{1}), 0u);
  EXPECT_EQ(theta.total_sampled(), 0u);
}

TEST(ThetaStoreTest, AddPairGroupsBySubStream) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(2.0, {1, 2}));
  theta.add_pair(SubStreamId{1}, pair_of(3.0, {5}));
  theta.add_pair(SubStreamId{2}, pair_of(1.0, {10}));

  EXPECT_EQ(theta.sub_streams().size(), 2u);
  EXPECT_EQ(theta.pairs(SubStreamId{1}).size(), 2u);
  EXPECT_EQ(theta.sampled_count(SubStreamId{1}), 3u);
  EXPECT_EQ(theta.total_sampled(), 4u);
}

TEST(ThetaStoreTest, DropsEmptyPairs) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, WeightedSample{5.0, {}});
  EXPECT_TRUE(theta.empty());
}

TEST(ThetaStoreTest, AddBundleSplitsPerSubStream) {
  SampledBundle bundle;
  bundle.w_out.set(SubStreamId{1}, 2.0);
  bundle.w_out.set(SubStreamId{2}, 4.0);
  bundle.sample[SubStreamId{1}] = {Item{SubStreamId{1}, 1.0, 0}};
  bundle.sample[SubStreamId{2}] = {Item{SubStreamId{2}, 2.0, 0},
                                   Item{SubStreamId{2}, 3.0, 0}};
  ThetaStore theta;
  theta.add(bundle);
  EXPECT_DOUBLE_EQ(theta.pairs(SubStreamId{1})[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(theta.pairs(SubStreamId{2})[0].weight, 4.0);
  EXPECT_EQ(theta.sampled_count(SubStreamId{2}), 2u);
}

TEST(ThetaStoreTest, ClearEmpties) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(1.0, {1}));
  theta.clear();
  EXPECT_TRUE(theta.empty());
}

// clear() keeps storage for the next window; nothing of the old window
// may show through it.
TEST(ThetaStoreTest, WindowAfterClearMatchesAFreshStore) {
  ThetaStore reused;
  reused.add_pair(SubStreamId{1}, pair_of(2.0, {1, 2, 3}));
  reused.add_pair(SubStreamId{2}, pair_of(5.0, {4}));
  reused.add_pair(SubStreamId{2}, pair_of(6.0, {7, 8}));
  reused.clear();
  EXPECT_TRUE(reused.empty());
  EXPECT_TRUE(reused.sub_streams().empty());
  EXPECT_TRUE(reused.pairs(SubStreamId{2}).empty());
  EXPECT_EQ(reused.total_sampled(), 0u);

  // Next window: one sub-stream again, one new, one gone.
  ThetaStore fresh;
  for (ThetaStore* theta : {&reused, &fresh}) {
    theta->add_pair(SubStreamId{2}, pair_of(3.0, {9}));
    theta->add_pair(SubStreamId{3}, pair_of(1.0, {10, 11}));
  }
  EXPECT_EQ(reused.sub_streams(), fresh.sub_streams());
  EXPECT_EQ(reused.total_sampled(), fresh.total_sampled());
  EXPECT_TRUE(reused.pairs(SubStreamId{1}).empty());
  ASSERT_EQ(reused.pairs(SubStreamId{2}).size(), 1u);
  EXPECT_EQ(reused.pairs(SubStreamId{2})[0].items,
            fresh.pairs(SubStreamId{2})[0].items);
  EXPECT_DOUBLE_EQ(estimate_total_sum(reused), estimate_total_sum(fresh));

  // A sub-stream idle for a whole window is forgotten at the next clear.
  reused.clear();
  reused.clear();
  EXPECT_TRUE(reused.sub_streams().empty());
  EXPECT_TRUE(reused.empty());
}

// --- Estimators: the worked example of Fig. 3 --------------------------
// Θ at root C holds (3, {item 5}) and (3, {item 3}) where the item's
// index is its value; the paper computes SUM = 3*5 + 3*3 = 24.
TEST(EstimatorTest, PaperFigure3WorkedExample) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(3.0, {5}));
  theta.add_pair(SubStreamId{1}, pair_of(3.0, {3}));
  EXPECT_DOUBLE_EQ(estimate_sum(theta, SubStreamId{1}), 24.0);
  EXPECT_DOUBLE_EQ(estimate_total_sum(theta), 24.0);
  // ĉ = 3*1 + 3*1 = 6, the original count at node A (items 1..6).
  EXPECT_DOUBLE_EQ(estimate_count(theta, SubStreamId{1}), 6.0);
}

TEST(EstimatorTest, SumAcrossSubStreamsIsEquationFour) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(2.0, {1, 2, 3}));  // SUM_1 = 12
  theta.add_pair(SubStreamId{2}, pair_of(5.0, {10}));       // SUM_2 = 50
  EXPECT_DOUBLE_EQ(estimate_total_sum(theta), 62.0);
}

TEST(EstimatorTest, WeightOneIsExactSum) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(1.0, {1.5, 2.5, 3.0}));
  EXPECT_DOUBLE_EQ(estimate_sum(theta, SubStreamId{1}), 7.0);
  EXPECT_DOUBLE_EQ(estimate_count(theta, SubStreamId{1}), 3.0);
}

TEST(EstimatorTest, MeanIsSumOverCount) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(2.0, {4.0, 6.0}));  // sum 20, c 4
  theta.add_pair(SubStreamId{2}, pair_of(1.0, {10.0}));      // sum 10, c 1
  EXPECT_DOUBLE_EQ(estimate_total_count(theta), 5.0);
  EXPECT_DOUBLE_EQ(estimate_total_mean(theta), 30.0 / 5.0);
}

TEST(EstimatorTest, EmptyThetaMeansZero) {
  ThetaStore theta;
  EXPECT_EQ(estimate_total_sum(theta), 0.0);
  EXPECT_EQ(estimate_total_mean(theta), 0.0);
  EXPECT_EQ(estimate_total_count(theta), 0.0);
}

TEST(SummarizeTest, ProducesPerStreamSummaries) {
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(2.0, {1.0, 3.0}));
  theta.add_pair(SubStreamId{2}, pair_of(1.0, {10.0}));

  auto summaries = summarize(theta);
  ASSERT_EQ(summaries.size(), 2u);
  const auto& s1 = summaries[0];
  EXPECT_EQ(s1.id, SubStreamId{1});
  EXPECT_DOUBLE_EQ(s1.sum, 8.0);
  EXPECT_DOUBLE_EQ(s1.estimated_count, 4.0);
  EXPECT_EQ(s1.sampled, 2u);
  EXPECT_DOUBLE_EQ(s1.sample_mean, 2.0);
  EXPECT_DOUBLE_EQ(s1.sample_variance, 2.0);

  const auto& s2 = summaries[1];
  EXPECT_EQ(s2.sampled, 1u);
  EXPECT_EQ(s2.sample_variance, 0.0);
}

TEST(SummarizeTest, VarianceSpansPairsOfOneSubStream) {
  // Items of one sub-stream split across pairs must pool into one s².
  ThetaStore theta;
  theta.add_pair(SubStreamId{1}, pair_of(1.0, {2.0}));
  theta.add_pair(SubStreamId{1}, pair_of(1.0, {4.0}));
  theta.add_pair(SubStreamId{1}, pair_of(1.0, {6.0}));
  auto summaries = summarize(theta);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_DOUBLE_EQ(summaries[0].sample_mean, 4.0);
  EXPECT_DOUBLE_EQ(summaries[0].sample_variance, 4.0);
}

}  // namespace
}  // namespace approxiot::core
