#include "core/snapshot_node.hpp"

#include <gtest/gtest.h>

#include "core/estimators.hpp"
#include "core/pipeline.hpp"
#include "core/theta_store.hpp"

namespace approxiot::core {
namespace {

std::vector<Item> n_items(SubStreamId id, std::size_t n, double value = 1.0) {
  std::vector<Item> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Item{id, value, 0});
  return out;
}

TEST(SnapshotNodeTest, ValidatesConfig) {
  EXPECT_THROW(SnapshotNode(SnapshotNodeConfig{NodeId{1}, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(SnapshotNode(SnapshotNodeConfig{NodeId{1}, 2, 5}),
               std::invalid_argument);
}

TEST(SnapshotNodeTest, KeepsEveryKthIntervalEntirely) {
  SnapshotNode node(SnapshotNodeConfig{NodeId{1}, 3, 0});
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 10);

  int kept_intervals = 0;
  for (int i = 0; i < 9; ++i) {
    std::vector<SampledBundle> out;
    node.process_interval({bundle}, out);
    if (!out.empty()) {
      ++kept_intervals;
      EXPECT_EQ(out[0].sample.at(SubStreamId{1}).size(), 10u);
      EXPECT_DOUBLE_EQ(out[0].w_out.get(SubStreamId{1}), 3.0);
    }
  }
  EXPECT_EQ(kept_intervals, 3);  // intervals 0, 3, 6
}

TEST(SnapshotNodeTest, PhaseShiftsTheKeptInterval) {
  SnapshotNode node(SnapshotNodeConfig{NodeId{1}, 4, 2});
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 1);
  std::vector<bool> kept;
  std::vector<SampledBundle> out;
  for (int i = 0; i < 8; ++i) {
    node.process_interval({bundle}, out);
    kept.push_back(!out.empty());
  }
  EXPECT_EQ(kept, (std::vector<bool>{false, false, true, false, false, false,
                                     true, false}));
}

TEST(SnapshotNodeTest, StationaryStreamEstimateIsUnbiased) {
  // On a stationary stream, snapshot weighting reconstructs the total.
  SnapshotNode node(SnapshotNodeConfig{NodeId{1}, 5, 0});
  ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 100, 2.0);

  ThetaStore theta;
  std::vector<SampledBundle> outputs;
  for (int i = 0; i < 10; ++i) {
    node.process_interval({bundle}, outputs);
    for (auto& out : outputs) theta.add(out);
  }
  // 10 intervals x 100 items x 2.0 = 2000 total; 2 kept snapshots at
  // weight 5 reconstruct it exactly.
  EXPECT_DOUBLE_EQ(estimate_total_sum(theta), 2000.0);
}

TEST(SnapshotNodeTest, DriftingStreamIsBiased) {
  // The weakness the paper's item-level sampling avoids: values drift
  // between snapshots, and the decimation misses the change entirely.
  SnapshotNode node(SnapshotNodeConfig{NodeId{1}, 5, 0});
  ThetaStore theta;
  std::vector<SampledBundle> outputs;
  double truth = 0.0;
  for (int i = 0; i < 10; ++i) {
    ItemBundle bundle;
    const double value = static_cast<double>(i + 1);  // rising values
    bundle.items = n_items(SubStreamId{1}, 100, value);
    truth += 100.0 * value;
    node.process_interval({bundle}, outputs);
    for (auto& out : outputs) theta.add(out);
  }
  // Kept intervals 0 and 5 (values 1 and 6): estimate 500*(1+6)=3500 vs
  // truth 5500 — a 36% bias.
  EXPECT_DOUBLE_EQ(estimate_total_sum(theta), 3500.0);
  EXPECT_GT(std::fabs(estimate_total_sum(theta) - truth) / truth, 0.3);
}

TEST(SnapshotNodeTest, SetFractionMapsToPeriod) {
  SnapshotNode node(SnapshotNodeConfig{NodeId{1}, 1, 0});
  node.set_fraction(0.25);
  EXPECT_EQ(node.period(), 4u);
  node.set_fraction(1.0);
  EXPECT_EQ(node.period(), 1u);
  node.set_fraction(0.0);
  EXPECT_GT(node.period(), 1000u);
}

TEST(SnapshotNodeTest, WeightsComposeWithUpstream) {
  SnapshotNode node(SnapshotNodeConfig{NodeId{1}, 2, 0});
  ItemBundle bundle;
  bundle.w_in.set(SubStreamId{1}, 3.0);
  bundle.items = n_items(SubStreamId{1}, 4);
  std::vector<SampledBundle> out;
  node.process_interval({bundle}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].w_out.get(SubStreamId{1}), 6.0);
}

TEST(SnapshotEngineTest, RunsInsideEdgeTree) {
  EdgeTreeConfig config;
  config.engine = EngineKind::kSnapshot;
  config.layer_widths = {2};
  config.sampling_fraction = 0.5;  // period 2 at the leaves
  EdgeTree tree(config);

  double estimate_total = 0.0;
  const double per_window = 100.0;
  for (int w = 0; w < 4; ++w) {
    std::vector<std::vector<Item>> leaves(2);
    leaves[0] = n_items(SubStreamId{1}, 100, 1.0);
    tree.tick(leaves);
    estimate_total += tree.close_window().sum.point;
  }
  // Stationary stream: halves of the windows kept at weight 2 -> the
  // multi-window total reconstructs 4 * 100.
  EXPECT_DOUBLE_EQ(estimate_total, 4.0 * per_window);
  EXPECT_STREQ(engine_kind_name(EngineKind::kSnapshot), "Snapshot");
}

}  // namespace
}  // namespace approxiot::core
