#include "core/error.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/whsamp.hpp"

namespace approxiot::core {
namespace {

SubStreamEstimate make_summary(std::uint64_t id, double sum, double count,
                               std::uint64_t sampled, double mean,
                               double variance) {
  SubStreamEstimate s;
  s.id = SubStreamId{id};
  s.sum = sum;
  s.estimated_count = count;
  s.sampled = sampled;
  s.sample_mean = mean;
  s.sample_variance = variance;
  return s;
}

TEST(ErrorEstimateTest, MatchesHandComputedEquationEleven) {
  // One sub-stream: c = 100, ζ = 10, s² = 4.
  // V̂ar(SUM) = c(c−ζ)s²/ζ = 100*90*4/10 = 3600.
  const std::vector<SubStreamEstimate> summaries = {
      make_summary(1, 500.0, 100.0, 10, 5.0, 4.0)};
  const ErrorEstimate err = estimate_error(summaries);
  EXPECT_NEAR(err.sum_variance, 3600.0, 1e-9);
}

TEST(ErrorEstimateTest, MatchesHandComputedEquationFourteen) {
  // Two sub-streams with equal counts: φ_i = 0.5 each.
  // Term_i = φ² · s²/ζ · (c−ζ)/c.
  const std::vector<SubStreamEstimate> summaries = {
      make_summary(1, 0.0, 100.0, 10, 0.0, 4.0),
      make_summary(2, 0.0, 100.0, 20, 0.0, 9.0)};
  const ErrorEstimate err = estimate_error(summaries);
  const double t1 = 0.25 * (4.0 / 10.0) * (90.0 / 100.0);
  const double t2 = 0.25 * (9.0 / 20.0) * (80.0 / 100.0);
  EXPECT_NEAR(err.mean_variance, t1 + t2, 1e-12);
}

TEST(ErrorEstimateTest, FullySampledStreamHasZeroVariance) {
  // c == ζ: the stratum is known exactly; FPC zeroes the term.
  const std::vector<SubStreamEstimate> summaries = {
      make_summary(1, 100.0, 50.0, 50, 2.0, 7.0)};
  const ErrorEstimate err = estimate_error(summaries);
  EXPECT_EQ(err.sum_variance, 0.0);
  EXPECT_EQ(err.mean_variance, 0.0);
}

TEST(ErrorEstimateTest, UnsampledStreamContributesNothing) {
  const std::vector<SubStreamEstimate> summaries = {
      make_summary(1, 0.0, 0.0, 0, 0.0, 0.0)};
  const ErrorEstimate err = estimate_error(summaries);
  EXPECT_EQ(err.sum_variance, 0.0);
}

TEST(ErrorEstimateTest, VarianceSumsAcrossSubStreams) {
  const std::vector<SubStreamEstimate> summaries = {
      make_summary(1, 0.0, 100.0, 10, 0.0, 4.0),    // 3600
      make_summary(2, 0.0, 200.0, 10, 0.0, 1.0)};   // 200*190*1/10 = 3800
  const ErrorEstimate err = estimate_error(summaries);
  EXPECT_NEAR(err.sum_variance, 7400.0, 1e-9);
}

TEST(ApproximateQueryTest, CombinesEstimatesAndBounds) {
  ThetaStore theta;
  WeightedSample p;
  p.weight = 10.0;
  for (double v : {1.0, 2.0, 3.0}) {
    p.items.push_back(Item{SubStreamId{1}, v, 0});
  }
  theta.add_pair(SubStreamId{1}, std::move(p));

  const ApproxResult result = approximate_query(theta);
  EXPECT_DOUBLE_EQ(result.sum.point, 60.0);
  EXPECT_DOUBLE_EQ(result.estimated_count, 30.0);
  EXPECT_DOUBLE_EQ(result.mean.point, 2.0);
  EXPECT_EQ(result.sampled_items, 3u);
  EXPECT_GT(result.sum.margin, 0.0);  // down-sampled -> uncertainty
}

TEST(ApproximateQueryTest, EmptyThetaGivesZeros) {
  ThetaStore theta;
  const ApproxResult result = approximate_query(theta);
  EXPECT_EQ(result.sum.point, 0.0);
  EXPECT_EQ(result.sum.margin, 0.0);
  EXPECT_EQ(result.sampled_items, 0u);
}

// Coverage property: sample a known population through WHSamp repeatedly;
// the 95% interval must cover the true sum at close to its nominal rate.
class CoveragePropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CoveragePropertyTest, SumIntervalCoversTruth) {
  const std::size_t reservoir = GetParam();
  const std::size_t population = 2000;
  Rng value_rng(7);
  std::vector<Item> items;
  double true_sum = 0.0;
  for (std::size_t i = 0; i < population; ++i) {
    const double v = 50.0 + 10.0 * value_rng.next_gaussian();
    items.push_back(Item{SubStreamId{1}, v, 0});
    true_sum += v;
  }

  const int trials = 300;
  int covered = 0;
  for (int t = 0; t < trials; ++t) {
    WHSampler sampler(Rng(1000 + static_cast<std::uint64_t>(t)));
    ThetaStore theta;
    SampledBundle sampled;
    sampler.sample(items, reservoir, WeightMap{}, sampled);
    theta.add(sampled);
    const ApproxResult result =
        approximate_query(theta, stats::kConfidence95);
    if (result.sum.covers(true_sum)) ++covered;
  }
  const double rate = static_cast<double>(covered) / trials;
  // CLT approximation plus with-replacement variance formula on a
  // without-replacement sample: allow a generous band around 95%.
  EXPECT_GE(rate, 0.85) << "reservoir=" << reservoir;
  EXPECT_LE(rate, 1.0);
}

INSTANTIATE_TEST_SUITE_P(ReservoirSizes, CoveragePropertyTest,
                         ::testing::Values(50, 100, 400, 1000));

}  // namespace
}  // namespace approxiot::core
