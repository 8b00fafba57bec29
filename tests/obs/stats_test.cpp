// StatsRegistry: typed stats, interval deltas, and the exporter surface
// (golden JSON + Prometheus text snapshots).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/stats.hpp"

namespace approxiot::obs {
namespace {

TEST(ObsStatsTest, CounterAndGaugeBasics) {
  StatsRegistry registry;
  registry.counter("a").increment();
  registry.counter("a").increment(9);
  registry.gauge("g").set(2.5);
  EXPECT_EQ(registry.counter("a").value(), 10u);
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 2.5);
}

TEST(ObsStatsTest, RegistryReturnsStableReferences) {
  StatsRegistry registry;
  Counter& first = registry.counter("x");
  Counter& again = registry.counter("x");
  EXPECT_EQ(&first, &again);
  Histogram& h1 = registry.histogram("h");
  Histogram& h2 = registry.histogram("h");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsStatsTest, ConcurrentCounterIncrementsAreLossless) {
  StatsRegistry registry;
  Counter& counter = registry.counter("hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), 40000u);
}

TEST(ObsStatsTest, HistogramTracksCountSumMeanMax) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 10.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 20.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 10.0);
}

TEST(ObsStatsTest, HistogramPercentilesAreOrderedAndBounded) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const double p50 = h.percentile(0.50);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, h.max_value());
  // Exponential buckets give ~2x resolution; p50 of U[1,1000] is ~500.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1024.0);
  EXPECT_GT(p99, 500.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min_value());
  EXPECT_DOUBLE_EQ(h.percentile(1.0), h.max_value());
}

TEST(ObsStatsTest, HistogramPercentileIsClampedToMinBelowBucketBoundary) {
  // A lone small value in the first bucket: quantiles must never report
  // below it (the bucket's nominal range starts at 0).
  Histogram h;
  h.record(0.25);
  h.record(0.75);
  EXPECT_GE(h.percentile(0.01), 0.25);
  EXPECT_LE(h.percentile(0.99), 0.75);
}

TEST(ObsStatsTest, HistogramSingleSampleReportsItselfAtEveryQuantile) {
  Histogram h;
  h.record(42.0);
  EXPECT_DOUBLE_EQ(h.min_value(), 42.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 42.0);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(q), 42.0) << "q=" << q;
  }
}

TEST(ObsStatsTest, HistogramEmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(q), 0.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 0.0);
}

TEST(ObsStatsTest, HistogramQuantilesStayWithinObservedRange) {
  Histogram h;
  for (int i = 1000; i <= 1023; ++i) h.record(static_cast<double>(i));
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double p = h.percentile(q);
    EXPECT_GE(p, 1000.0) << "q=" << q;
    EXPECT_LE(p, 1023.0) << "q=" << q;
  }
}

TEST(ObsStatsTest, HistogramConcurrentRecordingIsLossless) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 10000; ++i) h.record(3.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 40000u);
  EXPECT_DOUBLE_EQ(h.sum(), 120000.0);
  EXPECT_DOUBLE_EQ(h.min_value(), 3.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 3.0);
}

TEST(ObsStatsTest, LinearHistogramClampsIntoRange) {
  LinearHistogram h(0.0, 1.0, 10);
  h.record(-0.5);  // clamps into the first bucket
  h.record(0.25);
  h.record(2.0);  // clamps into the last bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
}

TEST(ObsStatsTest, EwmaRateDecaysDeterministically) {
  EwmaRate rate(5.0);
  rate.record_at(0.0, 100.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(0.0), 20.0);  // 100 / tau
  EXPECT_NEAR(rate.rate_at(5.0), 20.0 * std::exp(-1.0), 1e-9);
  rate.record_at(5.0, 100.0);
  EXPECT_NEAR(rate.rate_at(5.0), 20.0 * std::exp(-1.0) + 20.0, 1e-9);
}

TEST(ObsStatsTest, FormulaEvaluatesAtSnapshotTime) {
  StatsRegistry registry;
  Counter& items = registry.counter("items");
  registry.formula("items_doubled", [&items] {
    return static_cast<double>(items.value()) * 2.0;
  });
  items.increment(4);
  const StatsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.formulas.at("items_doubled"), 8.0);
}

TEST(ObsStatsTest, ScopedStatsPrefixesNames) {
  StatsRegistry registry;
  ScopedStats node = registry.scope("tree/L0/n3");
  node.counter("items")->increment(2);
  ScopedStats lane = node.scope("lane0");
  lane.gauge("depth")->set(7.0);
  EXPECT_EQ(registry.counter("tree/L0/n3/items").value(), 2u);
  EXPECT_DOUBLE_EQ(registry.gauge("tree/L0/n3/lane0/depth").value(), 7.0);
}

TEST(ObsStatsTest, UnboundScopedStatsReturnsNull) {
  ScopedStats unbound;
  EXPECT_FALSE(unbound.bound());
  EXPECT_EQ(unbound.counter("x"), nullptr);
  EXPECT_EQ(unbound.gauge("x"), nullptr);
  EXPECT_EQ(unbound.histogram("x"), nullptr);
  EXPECT_FALSE(unbound.scope("deeper").bound());
}

TEST(ObsStatsTest, DeltaSinceSubtractsCountersAndHistograms) {
  StatsRegistry registry;
  registry.counter("items").increment(5);
  Histogram& h = registry.histogram("exec_us");
  h.record(1.0);
  h.record(1.0);
  const StatsSnapshot before = registry.snapshot();

  registry.counter("items").increment(7);
  for (int i = 0; i < 3; ++i) h.record(10.0);
  const StatsSnapshot after = registry.snapshot();

  const StatsSnapshot delta = after.delta_since(before);
  EXPECT_EQ(delta.counters.at("items"), 7u);
  const HistogramStats& d = delta.histograms.at("exec_us");
  EXPECT_EQ(d.count, 3u);
  EXPECT_DOUBLE_EQ(d.sum, 30.0);
  EXPECT_DOUBLE_EQ(d.mean, 10.0);
  // Only the 10.0-bucket survives the subtraction; the delta quantiles
  // resolve to bucket bounds (2, 16] around the new samples.
  ASSERT_EQ(d.buckets.size(), 1u);
  EXPECT_EQ(d.buckets[0].second, 3u);
  EXPECT_GE(d.p50, 2.0);
  EXPECT_LE(d.p50, 16.0);
}

TEST(ObsStatsTest, DeltaTreatsNewStatsAsFresh) {
  StatsRegistry registry;
  const StatsSnapshot before = registry.snapshot();
  registry.counter("late").increment(3);
  const StatsSnapshot delta = registry.snapshot().delta_since(before);
  EXPECT_EQ(delta.counters.at("late"), 3u);
}

// Golden snapshots: a small deterministic registry must serialise to
// exactly these strings. If an exporter change breaks them on purpose,
// update the goldens alongside the format change.
class ObsExporterGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.counter("tree/items").increment(3);
    registry_.gauge("tree/fraction").set(0.5);
    registry_.formula("tree/ratio", [] { return 6.0; });
    registry_.histogram("tree/exec_us").record(3.0);
  }
  StatsRegistry registry_;
};

TEST_F(ObsExporterGoldenTest, JsonSnapshotMatchesGolden) {
  const std::string json = registry_.snapshot().to_json();
  EXPECT_EQ(json,
            "{\"counters\":{\"tree/items\":3},"
            "\"gauges\":{\"tree/fraction\":0.5},"
            "\"rates\":{},"
            "\"formulas\":{\"tree/ratio\":6},"
            "\"histograms\":{\"tree/exec_us\":{\"count\":1,\"sum\":3,"
            "\"mean\":3,\"min\":3,\"max\":3,\"p50\":3,\"p90\":3,"
            "\"p99\":3}}}");
}

TEST_F(ObsExporterGoldenTest, PrometheusSnapshotMatchesGolden) {
  const std::string prom = registry_.snapshot().to_prometheus();
  EXPECT_EQ(prom,
            "# TYPE approxiot_tree_items counter\n"
            "approxiot_tree_items 3\n"
            "# TYPE approxiot_tree_fraction gauge\n"
            "approxiot_tree_fraction 0.5\n"
            "# TYPE approxiot_tree_ratio gauge\n"
            "approxiot_tree_ratio 6\n"
            "# TYPE approxiot_tree_exec_us histogram\n"
            "approxiot_tree_exec_us_bucket{le=\"4\"} 1\n"
            "approxiot_tree_exec_us_bucket{le=\"+Inf\"} 1\n"
            "approxiot_tree_exec_us_sum 3\n"
            "approxiot_tree_exec_us_count 1\n");
}

}  // namespace
}  // namespace approxiot::obs
