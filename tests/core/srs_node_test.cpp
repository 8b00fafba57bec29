#include "core/srs_node.hpp"

#include <gtest/gtest.h>

#include "core/estimators.hpp"

namespace approxiot::core {
namespace {

std::vector<Item> n_items(SubStreamId id, std::size_t n, double value = 1.0) {
  std::vector<Item> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Item{id, value, 0});
  return out;
}

TEST(SrsNodeTest, FullProbabilityKeepsAll) {
  SrsNode node(SrsNodeConfig{NodeId{1}, 1.0, 1});
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 50);
  std::vector<SampledBundle> out;
  node.process_interval({bundle}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sample.at(SubStreamId{1}).size(), 50u);
  EXPECT_DOUBLE_EQ(out[0].w_out.get(SubStreamId{1}), 1.0);
}

TEST(SrsNodeTest, KeptFractionTracksProbability) {
  SrsNode node(SrsNodeConfig{NodeId{1}, 0.25, 2});
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 40000);
  std::vector<SampledBundle> out;
  node.process_interval({bundle}, out);
  ASSERT_EQ(out.size(), 1u);
  const double kept =
      static_cast<double>(out[0].sample.at(SubStreamId{1}).size());
  EXPECT_NEAR(kept / 40000.0, 0.25, 0.02);
  EXPECT_DOUBLE_EQ(out[0].w_out.get(SubStreamId{1}), 4.0);
}

TEST(SrsNodeTest, WeightsComposeAcrossLayers) {
  // Two SRS hops at p=0.5: surviving items carry weight 4.
  SrsNode first(SrsNodeConfig{NodeId{1}, 0.5, 3});
  SrsNode second(SrsNodeConfig{NodeId{2}, 0.5, 4});
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 10000);
  std::vector<SampledBundle> mid;
  first.process_interval({bundle}, mid);
  ASSERT_FALSE(mid.empty());
  std::vector<SampledBundle> out;
  second.process_interval({mid[0].to_bundle()}, out);
  ASSERT_FALSE(out.empty());
  EXPECT_DOUBLE_EQ(out[0].w_out.get(SubStreamId{1}), 4.0);
}

TEST(SrsNodeTest, SumEstimateIsUnbiased) {
  // Average the SRS estimate over many trials: converges to the truth.
  const std::size_t n = 2000;
  const double value = 3.0;
  const double truth = static_cast<double>(n) * value;
  double estimate_sum = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    SrsRootNode root(
        SrsNodeConfig{NodeId{1}, 0.2, 100 + static_cast<std::uint64_t>(t)});
    ItemBundle bundle;
    bundle.items = n_items(SubStreamId{1}, n, value);
    root.ingest_interval({bundle});
    estimate_sum += root.run_query().sum.point;
  }
  EXPECT_NEAR(estimate_sum / trials / truth, 1.0, 0.02);
}

TEST(SrsNodeTest, CanMissRareSubStreamEntirely) {
  // The failure mode stratification fixes: at p=0.05 a 3-item sub-stream
  // regularly vanishes from the SRS sample.
  int missed = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    SrsNode node(
        SrsNodeConfig{NodeId{1}, 0.05, 500 + static_cast<std::uint64_t>(t)});
    ItemBundle bundle;
    bundle.items = n_items(SubStreamId{1}, 5000);
    auto rare = n_items(SubStreamId{2}, 3, 1e9);
    bundle.items.insert(bundle.items.end(), rare.begin(), rare.end());
    std::vector<SampledBundle> out;
    node.process_interval({bundle}, out);
    bool seen = false;
    for (const auto& b : out) {
      if (b.sample.count(SubStreamId{2}) > 0 &&
          !b.sample.at(SubStreamId{2}).empty()) {
        seen = true;
      }
    }
    if (!seen) ++missed;
  }
  // P(miss) = 0.95^3 ≈ 0.857; require it to happen often.
  EXPECT_GT(missed, trials / 2);
}

TEST(SrsNodeTest, MetricsCount) {
  SrsNode node(SrsNodeConfig{NodeId{1}, 0.5, 6});
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 1000);
  std::vector<SampledBundle> out;
  node.process_interval({bundle}, out);
  EXPECT_EQ(node.metrics().items_in, 1000u);
  EXPECT_GT(node.metrics().items_out, 0u);
  EXPECT_LT(node.metrics().items_out, 1000u);
}

TEST(SrsNodeTest, ZeroProbabilityDropsEverything) {
  SrsNode node(SrsNodeConfig{NodeId{1}, 0.0, 7});
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 100);
  std::vector<SampledBundle> out;
  node.process_interval({bundle}, out);
  EXPECT_TRUE(out.empty());
}

TEST(SrsRootNodeTest, CloseWindowClears) {
  SrsRootNode root(SrsNodeConfig{NodeId{1}, 1.0, 8});
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 10, 2.0);
  root.ingest_interval({bundle});
  EXPECT_DOUBLE_EQ(root.close_window().sum.point, 20.0);
  EXPECT_TRUE(root.theta().empty());
}

}  // namespace
}  // namespace approxiot::core
