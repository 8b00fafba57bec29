// The runtime's reporting surfaces: ConcurrentEdgeTree::metrics() for its
// counters, and the bound obs::StatsRegistry for the interval latency.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "obs/stats.hpp"
#include "runtime/concurrent_tree.hpp"

namespace approxiot::runtime {
namespace {

/// `ticks` intervals of random items over 4 sub-streams, sharded across
/// `leaves`. Returns items[tick][leaf].
std::vector<std::vector<std::vector<Item>>> make_workload(std::size_t ticks,
                                                          std::size_t leaves,
                                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::vector<Item>>> workload(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    workload[t].resize(leaves);
    for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
      const std::size_t n = 20 + rng.next_below(100);
      for (std::size_t i = 0; i < n; ++i) {
        workload[t][leaf].push_back(Item{SubStreamId{1 + rng.next_below(4)},
                                         rng.next_double() * 10.0,
                                         static_cast<std::int64_t>(t) * 1000});
      }
    }
  }
  return workload;
}

std::uint64_t item_count(
    const std::vector<std::vector<std::vector<Item>>>& workload) {
  std::uint64_t total = 0;
  for (const auto& tick : workload) {
    for (const auto& leaf : tick) total += leaf.size();
  }
  return total;
}

TEST(MetricsTest, CountersAndIntervalLatencyAreReported) {
  obs::StatsRegistry registry;
  ConcurrentTreeConfig config;
  config.tree.layer_widths = {2};
  config.stats = &registry;
  ConcurrentEdgeTree tree(config);
  const auto workload = make_workload(6, tree.leaf_count(), 3);
  for (const auto& tick : workload) tree.push_interval(tick);
  tree.drain();
  tree.stop();

  const auto metrics = tree.metrics();
  EXPECT_EQ(metrics.intervals_pushed, 6u);
  EXPECT_EQ(metrics.intervals_completed, 6u);
  EXPECT_EQ(metrics.items_ingested, item_count(workload));
  EXPECT_EQ(metrics.messages_dropped, 0u);
#ifndef APPROXIOT_NO_STATS
  // One latency sample per interval, under a name outside the per-node
  // "tree/root" and "tree/L..." scopes.
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.histograms.at("tree/interval_latency_us").count, 6u);
#endif
}

TEST(MetricsTest, CountersNeedNoStatsRegistry) {
  ConcurrentTreeConfig config;
  config.tree.layer_widths = {4, 2};
  config.tree.sampling_fraction = 0.5;
  ASSERT_EQ(config.stats, nullptr);
  ConcurrentEdgeTree tree(config);
  const auto workload = make_workload(5, tree.leaf_count(), 11);
  for (const auto& tick : workload) tree.push_interval(tick);
  tree.drain();
  tree.stop();

  const auto metrics = tree.metrics();
  EXPECT_EQ(metrics.intervals_pushed, 5u);
  EXPECT_EQ(metrics.intervals_completed, 5u);
  EXPECT_EQ(metrics.items_ingested, item_count(workload));
  EXPECT_EQ(metrics.messages_dropped, 0u);
  // One entry per edge layer (the root is not counted); sampling only
  // thins the stream on its way up, and with lossless edges the root
  // receives exactly what the last edge layer forwarded.
  ASSERT_EQ(metrics.items_forwarded_per_layer.size(), 2u);
  EXPECT_GT(metrics.items_forwarded_per_layer[0], 0u);
  EXPECT_LE(metrics.items_forwarded_per_layer[0], metrics.items_ingested);
  EXPECT_LE(metrics.items_forwarded_per_layer[1],
            metrics.items_forwarded_per_layer[0]);
  EXPECT_EQ(metrics.items_at_root, metrics.items_forwarded_per_layer[1]);
}

TEST(MetricsTest, IntervalLatencyCountsOnlyCompletedIntervals) {
  obs::StatsRegistry registry;
  ConcurrentTreeConfig config;
  config.tree.layer_widths = {2};
  config.stats = &registry;
  ConcurrentEdgeTree tree(config);
  const auto workload = make_workload(4, tree.leaf_count(), 7);
  tree.push_interval(workload[0]);
  tree.push_interval(workload[1]);
  tree.drain();
  const auto first = tree.metrics();
  EXPECT_EQ(first.intervals_completed, 2u);
#ifndef APPROXIOT_NO_STATS
  EXPECT_EQ(registry.snapshot().histograms.at("tree/interval_latency_us").count,
            2u);
#endif
  tree.push_interval(workload[2]);
  tree.push_interval(workload[3]);
  tree.drain();
  tree.stop();
  EXPECT_EQ(tree.metrics().intervals_completed, 4u);
#ifndef APPROXIOT_NO_STATS
  const auto latency =
      registry.snapshot().histograms.at("tree/interval_latency_us");
  EXPECT_EQ(latency.count, 4u);
  EXPECT_GE(latency.min, 0.0);
#endif
}

}  // namespace
}  // namespace approxiot::runtime
