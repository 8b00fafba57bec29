#include "core/node.hpp"

#include <gtest/gtest.h>

namespace approxiot::core {
namespace {

std::vector<Item> n_items(SubStreamId id, std::size_t n, double value = 1.0) {
  std::vector<Item> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Item{id, value, 0});
  return out;
}

NodeConfig fixed_config(std::size_t sample_size) {
  NodeConfig config;
  config.cost_function = "fixed";
  config.budget.fixed_sample_size = sample_size;
  return config;
}

TEST(SamplingNodeTest, ProcessesOnePairPerBundle) {
  SamplingNode node(fixed_config(5));
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 20);
  std::vector<SampledBundle> outputs;
  node.process_interval({bundle}, outputs);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].sample.at(SubStreamId{1}).size(), 5u);
  EXPECT_DOUBLE_EQ(outputs[0].w_out.get(SubStreamId{1}), 4.0);
}

TEST(SamplingNodeTest, MetricsTrackVolumes) {
  SamplingNode node(fixed_config(5));
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 20);
  std::vector<SampledBundle> out;
  node.process_interval({bundle}, out);
  EXPECT_EQ(node.metrics().items_in, 20u);
  EXPECT_EQ(node.metrics().items_out, 5u);
  EXPECT_EQ(node.metrics().intervals, 1u);
  EXPECT_DOUBLE_EQ(node.metrics().forward_ratio(), 0.25);
}

TEST(SamplingNodeTest, EmptyIntervalStillCounts) {
  SamplingNode node(fixed_config(5));
  std::vector<SampledBundle> outputs;
  node.process_interval({}, outputs);
  EXPECT_TRUE(outputs.empty());
  EXPECT_EQ(node.metrics().intervals, 1u);
}

// The Fig. 3 carry-over rule: items arriving in a later interval than
// their weight reuse the last known weight for the sub-stream.
TEST(SamplingNodeTest, WeightCarriesAcrossIntervals) {
  SamplingNode node(fixed_config(1));

  // Interval v: weight 1.5 arrives with items {5, 2}; reservoir 1 keeps
  // one -> W_out = 1.5 * 2 = 3 (the paper's node B).
  ItemBundle with_weight;
  with_weight.w_in.set(SubStreamId{1}, 1.5);
  with_weight.items = n_items(SubStreamId{1}, 2);
  std::vector<SampledBundle> out_v;
  node.process_interval({with_weight}, out_v);
  ASSERT_EQ(out_v.size(), 1u);
  EXPECT_DOUBLE_EQ(out_v[0].w_out.get(SubStreamId{1}), 3.0);

  // Interval v+1: items {3, 4} arrive with NO weight; the node must use
  // the remembered 1.5 -> again W_out = 3.
  ItemBundle weightless;
  weightless.items = n_items(SubStreamId{1}, 2);
  std::vector<SampledBundle> out_v1;
  node.process_interval({weightless}, out_v1);
  ASSERT_EQ(out_v1.size(), 1u);
  EXPECT_DOUBLE_EQ(out_v1[0].w_out.get(SubStreamId{1}), 3.0);
  EXPECT_DOUBLE_EQ(node.remembered_weights().get(SubStreamId{1}), 1.5);
}

TEST(SamplingNodeTest, BundleWeightBeatsRememberedWeight) {
  SamplingNode node(fixed_config(1));
  ItemBundle first;
  first.w_in.set(SubStreamId{1}, 2.0);
  first.items = n_items(SubStreamId{1}, 1);
  std::vector<SampledBundle> out;
  node.process_interval({first}, out);

  ItemBundle second;
  second.w_in.set(SubStreamId{1}, 10.0);  // fresher weight travels along
  second.items = n_items(SubStreamId{1}, 2);
  node.process_interval({second}, out);
  EXPECT_DOUBLE_EQ(out[0].w_out.get(SubStreamId{1}), 20.0);
}

TEST(SamplingNodeTest, MultiplePairsShareTheIntervalBudget) {
  SamplingNode node(fixed_config(5));
  ItemBundle a, b;
  a.items = n_items(SubStreamId{1}, 4);
  b.items = n_items(SubStreamId{1}, 6);
  std::vector<SampledBundle> outputs;
  node.process_interval({a, b}, outputs);
  ASSERT_EQ(outputs.size(), 2u);
  // Budget 5 split by pair size: 4/10 -> 2 slots, 6/10 -> 3 slots.
  EXPECT_EQ(outputs[0].sample.at(SubStreamId{1}).size(), 2u);
  EXPECT_EQ(outputs[1].sample.at(SubStreamId{1}).size(), 3u);
  EXPECT_DOUBLE_EQ(outputs[0].w_out.get(SubStreamId{1}), 2.0);
  EXPECT_DOUBLE_EQ(outputs[1].w_out.get(SubStreamId{1}), 2.0);
}

TEST(SamplingNodeTest, FractionCostFunctionUsesLastIntervalVolume) {
  NodeConfig config;
  config.cost_function = "fraction";
  config.budget.sampling_fraction = 0.5;
  SamplingNode node(config);

  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 100);
  // First interval: no history, so the buffered Ψ seeds the estimate and
  // the fraction applies immediately: budget = 0.5 * 100.
  std::vector<SampledBundle> first;
  node.process_interval({bundle}, first);
  EXPECT_EQ(first[0].sample.at(SubStreamId{1}).size(), 50u);
  EXPECT_DOUBLE_EQ(first[0].w_out.get(SubStreamId{1}), 2.0);
  // Second interval: EWMA of the last interval gives the same budget.
  std::vector<SampledBundle> second;
  node.process_interval({bundle}, second);
  EXPECT_EQ(second[0].sample.at(SubStreamId{1}).size(), 50u);
  EXPECT_DOUBLE_EQ(second[0].w_out.get(SubStreamId{1}), 2.0);
}

TEST(SamplingNodeTest, SetBudgetTakesEffectNextInterval) {
  SamplingNode node(fixed_config(10));
  ResourceBudget budget;
  budget.fixed_sample_size = 2;
  node.set_budget(budget);
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 10);
  std::vector<SampledBundle> out;
  node.process_interval({bundle}, out);
  EXPECT_EQ(out[0].sample.at(SubStreamId{1}).size(), 2u);
}

TEST(RootNodeTest, AccumulatesThetaAndAnswersQuery) {
  RootNode root(fixed_config(100));
  ItemBundle bundle;
  bundle.w_in.set(SubStreamId{1}, 2.0);
  bundle.items = n_items(SubStreamId{1}, 10, 3.0);
  root.ingest_interval({bundle});

  const ApproxResult result = root.run_query();
  // Nothing dropped at the root (budget 100 > 10): sum = 2 * 10 * 3.
  EXPECT_DOUBLE_EQ(result.sum.point, 60.0);
  EXPECT_DOUBLE_EQ(result.estimated_count, 20.0);
  EXPECT_FALSE(root.theta().empty());
}

TEST(RootNodeTest, CloseWindowClearsTheta) {
  RootNode root(fixed_config(100));
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 5);
  root.ingest_interval({bundle});
  const ApproxResult result = root.close_window();
  EXPECT_DOUBLE_EQ(result.sum.point, 5.0);
  EXPECT_TRUE(root.theta().empty());
  EXPECT_EQ(root.close_window().sum.point, 0.0);
}

TEST(RootNodeTest, AccumulatesAcrossIntervals) {
  RootNode root(fixed_config(100));
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 5, 2.0);
  root.ingest_interval({bundle});
  root.ingest_interval({bundle});
  EXPECT_DOUBLE_EQ(root.run_query().sum.point, 20.0);
}

}  // namespace
}  // namespace approxiot::core
