// Failure injection: degenerate budgets, empty and vanishing sub-streams,
// corrupted records, consumer churn, and extreme weights. The system must
// degrade gracefully (drop, hold, or widen bounds) — never crash or
// corrupt estimates.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "core/adaptive.hpp"
#include "core/checkpoint.hpp"
#include "core/error.hpp"
#include "core/node.hpp"
#include "core/pipeline.hpp"
#include "core/wire.hpp"
#include "runtime/concurrent_tree.hpp"
#include "runtime/flowqueue_bridge.hpp"
#include "flowqueue/broker.hpp"
#include "flowqueue/consumer.hpp"
#include "flowqueue/producer.hpp"

namespace approxiot {
namespace {

std::vector<Item> n_items(SubStreamId id, std::size_t n, double value = 1.0) {
  std::vector<Item> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Item{id, value, 0});
  return out;
}

TEST(FailureTest, ZeroBudgetNodeForwardsNothingButSurvives) {
  core::NodeConfig config;
  config.cost_function = "fixed";
  config.budget.fixed_sample_size = 0;
  core::SamplingNode node(config);

  core::ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 100);
  for (int i = 0; i < 5; ++i) {
    std::vector<core::SampledBundle> out;
    node.process_interval({bundle}, out);
    for (const auto& o : out) EXPECT_EQ(o.item_count(), 0u);
  }
  EXPECT_EQ(node.metrics().items_out, 0u);
}

TEST(FailureTest, SubStreamVanishingMidWindow) {
  core::NodeConfig config;
  config.cost_function = "fixed";
  config.budget.fixed_sample_size = 10;
  core::SamplingNode node(config);

  core::ItemBundle both;
  both.items = n_items(SubStreamId{1}, 50);
  auto more = n_items(SubStreamId{2}, 50);
  both.items.insert(both.items.end(), more.begin(), more.end());
  std::vector<core::SampledBundle> out;
  node.process_interval({both}, out);

  // Stream 2 disappears; the node must not emit phantom entries for it.
  core::ItemBundle only_one;
  only_one.items = n_items(SubStreamId{1}, 50);
  node.process_interval({only_one}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sample.count(SubStreamId{2}), 0u);
}

TEST(FailureTest, ExtremeWeightsStayFinite) {
  // 20 hops each multiplying the weight by 10: 10^20 — large but finite,
  // and the count invariant must still hold to double precision.
  core::ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 1);
  bundle.w_in.set(SubStreamId{1}, 1e20);

  core::NodeConfig config;
  config.cost_function = "fixed";
  config.budget.fixed_sample_size = 10;
  core::SamplingNode node(config);
  std::vector<core::SampledBundle> out;
  node.process_interval({bundle}, out);
  ASSERT_EQ(out.size(), 1u);
  const double w = out[0].w_out.get(SubStreamId{1});
  EXPECT_TRUE(std::isfinite(w));
  EXPECT_DOUBLE_EQ(w, 1e20);
}

TEST(FailureTest, EmptyWindowQueryIsZeroNotNan) {
  core::RootNode root([]() {
    core::NodeConfig c;
    c.cost_function = "fixed";
    c.budget.fixed_sample_size = 10;
    return c;
  }());
  const core::ApproxResult result = root.close_window();
  EXPECT_EQ(result.sum.point, 0.0);
  EXPECT_FALSE(std::isnan(result.mean.point));
  EXPECT_FALSE(std::isnan(result.sum.margin));
}

TEST(FailureTest, SingleItemSubStreamHasZeroVarianceNotNan) {
  core::ThetaStore theta;
  core::WeightedSample pair;
  pair.weight = 100.0;
  pair.items = {Item{SubStreamId{1}, 5.0, 0}};
  theta.add_pair(SubStreamId{1}, std::move(pair));
  const core::ApproxResult result = core::approximate_query(theta);
  EXPECT_FALSE(std::isnan(result.sum.margin));
  EXPECT_DOUBLE_EQ(result.sum.point, 500.0);
}

TEST(FailureTest, CorruptedRecordsDoNotPoisonThePipeline) {
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic("in", 1).is_ok());

  runtime::ConcurrentTreeConfig tree_config;
  tree_config.tree.layer_widths = {2};
  tree_config.tree.engine = core::EngineKind::kNative;
  runtime::ConcurrentEdgeTree tree(tree_config);
  runtime::FlowQueueSourceConfig source_config;
  source_config.topic = "in";
  runtime::FlowQueueSource source(broker, tree, source_config);
  ASSERT_TRUE(source.start().is_ok());

  flowqueue::Producer producer(broker);
  // Interleave garbage with one valid bundle.
  ASSERT_TRUE(producer.send("in", "junk1", {0xff, 0x00, 0x13}).is_ok());
  core::ItemBundle good;
  good.items = n_items(SubStreamId{1}, 10, 2.0);
  ASSERT_TRUE(
      producer.send("in", "good", core::encode_bundle(good)).is_ok());
  ASSERT_TRUE(producer.send("in", "junk2", {}).is_ok());

  ASSERT_TRUE(source.run_until_idle().is_ok());
  source.flush();
  tree.drain();
  tree.stop();

  // Only the good bundle made it, and both junk records are counted.
  EXPECT_EQ(source.decode_errors(), 2u);
  EXPECT_EQ(source.records_bridged(), 1u);
  EXPECT_EQ(tree.metrics().items_at_root, 10u);
  EXPECT_EQ(tree.theta().sampled_count(SubStreamId{1}), 10u);
}

TEST(FailureTest, ConsumerChurnPreservesDelivery) {
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic("t", 4).is_ok());
  flowqueue::Producer producer(broker);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(producer
                    .send_to_partition("t", static_cast<std::uint32_t>(i % 4),
                                       std::to_string(i), {0x01})
                    .is_ok());
  }

  std::size_t delivered = 0;
  {
    flowqueue::Consumer first(broker, "m1");
    ASSERT_TRUE(first.subscribe("g", {"t"}).is_ok());
    auto batch = first.poll(30);
    ASSERT_TRUE(batch.is_ok());
    delivered += batch.value().size();
    ASSERT_TRUE(first.commit().is_ok());
  }  // m1 dies; its partitions rebalance to m2

  flowqueue::Consumer second(broker, "m2");
  ASSERT_TRUE(second.subscribe("g", {"t"}).is_ok());
  ASSERT_TRUE(second.restore_committed().is_ok());
  while (true) {
    auto batch = second.poll(30);
    ASSERT_TRUE(batch.is_ok());
    if (batch.value().empty()) break;
    delivered += batch.value().size();
  }
  EXPECT_EQ(delivered, 100u);
}

TEST(FailureTest, TreeWithAllEmptyLeavesProducesEmptyWindows) {
  core::EdgeTreeConfig config;
  config.layer_widths = {4, 2};
  core::EdgeTree tree(config);
  std::vector<std::vector<Item>> empty(4);
  tree.tick(empty);
  tree.tick(empty);
  const core::ApproxResult result = tree.close_window();
  EXPECT_EQ(result.sampled_items, 0u);
  EXPECT_EQ(result.sum.point, 0.0);
}

TEST(FailureTest, NanValuesFlowWithoutCrashing) {
  // A sensor emitting NaN must not crash sampling; the estimate becomes
  // NaN (garbage in, garbage out) but the pipeline machinery survives.
  core::NodeConfig config;
  config.cost_function = "fixed";
  config.budget.fixed_sample_size = 5;
  core::RootNode root(config);
  core::ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 3,
                         std::numeric_limits<double>::quiet_NaN());
  root.ingest_interval({bundle});
  const core::ApproxResult result = root.run_query();
  EXPECT_TRUE(std::isnan(result.sum.point));
}

// Checkpoint/restore while the §IV-B adaptive loop is live: the snapshot
// carries the mid-run policy epoch and resolved fraction, so an operator
// who restores the tree and re-seeds a controller from the checkpointed
// fraction gets the EXACT run the uninterrupted deployment had — same
// epochs, same fractions, same Θ, window for window.
TEST(FailureTest, CheckpointRestoreUnderAdaptiveControlConverges) {
  core::EdgeTreeConfig base;
  base.layer_widths = {4, 2};
  base.sampling_fraction = 0.5;
  base.rng_seed = 404;

  auto deterministic_interval = [](std::uint64_t window, std::uint64_t tick) {
    Rng rng(window * 97 + tick);
    std::vector<std::vector<Item>> items(4);
    for (std::size_t leaf = 0; leaf < 4; ++leaf) {
      const std::size_t n = 30 + rng.next_below(30);
      for (std::size_t i = 0; i < n; ++i) {
        items[leaf].push_back(Item{SubStreamId{1 + rng.next_below(3)},
                                   rng.next_double() * 5.0, 0});
      }
    }
    return items;
  };

  core::AdaptiveConfig controller_config;
  controller_config.target_relative_error = 0.05;

  // One adaptive window: tick 3 intervals, close, let the controller
  // propose the next fraction and publish it as a new policy epoch.
  auto run_window = [&](core::EdgeTree& tree,
                        core::AdaptiveController& controller,
                        std::uint64_t window) {
    for (std::uint64_t tick = 0; tick < 3; ++tick) {
      tree.tick(deterministic_interval(window, tick));
    }
    const core::ApproxResult result = tree.close_window();
    tree.set_sampling_fraction(controller.observe(result.sum));
    return result;
  };

  core::EdgeTreeConfig config_a = base;
  config_a.control_plane = core::make_control_plane(base);
  core::EdgeTree uninterrupted(config_a);
  core::AdaptiveController controller_a(base.sampling_fraction,
                                        controller_config);

  core::EdgeTreeConfig config_b = base;
  config_b.control_plane = core::make_control_plane(base);
  core::EdgeTree first_half(config_b);
  core::AdaptiveController controller_b(base.sampling_fraction,
                                        controller_config);

  for (std::uint64_t window = 0; window < 2; ++window) {
    (void)run_window(uninterrupted, controller_a, window);
    (void)run_window(first_half, controller_b, window);
  }
  ASSERT_EQ(first_half.policy_epoch(), 2u);  // two adaptive publishes

  // Crash after window 1. The restored process rebuilds its controller
  // from the checkpointed policy's fraction (the controller itself is
  // memoryless beyond its current fraction).
  const core::Checkpoint snapshot = first_half.checkpoint();
  core::EdgeTreeConfig config_c = base;
  config_c.control_plane = core::make_control_plane(base);
  core::EdgeTree second_half(config_c);
  second_half.restore(snapshot);
  ASSERT_EQ(second_half.policy_epoch(), 2u);
  const double restored_fraction =
      second_half.control_plane()->snapshot()->budget.sampling_fraction;
  EXPECT_EQ(restored_fraction, controller_b.fraction());
  core::AdaptiveController controller_c(restored_fraction, controller_config);

  for (std::uint64_t window = 2; window < 5; ++window) {
    const auto expected = run_window(uninterrupted, controller_a, window);
    const auto actual = run_window(second_half, controller_c, window);
    EXPECT_EQ(expected.sum.point, actual.sum.point);
    EXPECT_EQ(expected.sum.margin, actual.sum.margin);
    EXPECT_EQ(expected.sampled_items, actual.sampled_items);
    EXPECT_EQ(expected.policy_epoch, actual.policy_epoch);
    EXPECT_EQ(controller_a.fraction(), controller_c.fraction());
  }
  EXPECT_EQ(uninterrupted.policy_epoch(), second_half.policy_epoch());
}

// Policy-epoch-aware replay: a FlowQueueSource checkpoint records the
// per-partition offsets, the interval cursor and the policy epoch. A
// restored source resumes exactly where the snapshot was cut — records
// before the cursor are dropped as late, never folded twice — so the
// post-crash totals equal the uninterrupted ones to the item.
TEST(FailureTest, FlowQueueSourceReplayResumesWithoutDoubleCounting) {
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic("sensors", 2).is_ok());
  flowqueue::Producer producer(broker);

  auto produce_interval = [&](std::int64_t k) {
    const SimTime ts = SimTime::from_seconds(static_cast<double>(k));
    for (std::uint64_t stream = 1; stream <= 2; ++stream) {
      core::ItemBundle bundle;
      for (std::size_t i = 0; i < 10 * stream; ++i) {
        bundle.items.push_back(Item{SubStreamId{stream}, 1.0, ts.us});
      }
      std::string key = "s";
      key += std::to_string(stream);
      ASSERT_TRUE(producer
                      .send("sensors", key, core::encode_bundle(bundle), ts)
                      .is_ok());
    }
  };  // 30 items per interval

  auto make_tree_config = [&] {
    runtime::ConcurrentTreeConfig config;
    config.tree.layer_widths = {2};
    config.tree.engine = core::EngineKind::kNative;  // exact counting
    config.tree.control_plane = core::make_control_plane(config.tree);
    return config;
  };
  runtime::FlowQueueSourceConfig source_config;
  source_config.topic = "sensors";
  source_config.interval = SimTime::from_seconds(1.0);

  // Phase 1: intervals 0..5 flow, a policy epoch is published mid-run,
  // then the process checkpoints (source cursor + tree state) and dies.
  core::Checkpoint source_snapshot;
  core::Checkpoint tree_snapshot;
  {
    runtime::ConcurrentEdgeTree tree(make_tree_config());
    (void)tree.publish_fraction(0.8);  // epoch 1 — must survive the crash
    runtime::FlowQueueSource source(broker, tree, source_config);
    ASSERT_TRUE(source.start().is_ok());
    for (std::int64_t k = 0; k < 6; ++k) produce_interval(k);
    ASSERT_TRUE(source.run_until_idle().is_ok());
    (void)source.flush();
    tree.drain();
    EXPECT_EQ(tree.metrics().items_at_root, 180u);  // 6 × 30
    source_snapshot = source.checkpoint();
    tree_snapshot = tree.checkpoint();
    tree.stop();
  }

  // While the process is down: 6 new intervals arrive, plus one straggler
  // whose timestamp falls BEFORE the checkpoint cursor.
  for (std::int64_t k = 6; k < 12; ++k) produce_interval(k);
  const SimTime stale_ts = SimTime::from_seconds(2.0);
  core::ItemBundle stale;
  stale.items.push_back(Item{SubStreamId{1}, 1.0, stale_ts.us});
  ASSERT_TRUE(
      producer.send("sensors", "s1", core::encode_bundle(stale), stale_ts)
          .is_ok());

  // Phase 2: a fresh process restores both snapshots and drains the rest.
  runtime::ConcurrentEdgeTree tree(make_tree_config());
  tree.restore(tree_snapshot);
  runtime::FlowQueueSource source(broker, tree, source_config);
  ASSERT_TRUE(source.start().is_ok());
  source.restore(source_snapshot);
  EXPECT_EQ(tree.policy_epoch(), 1u);  // re-installed, not re-published

  ASSERT_TRUE(source.run_until_idle().is_ok());
  (void)source.flush();
  tree.drain();

  // The straggler was dropped as late; intervals 6..11 were folded ONCE
  // on top of the restored counters: 12 × 30 total, not a record more.
  EXPECT_EQ(source.late_records(), 1u);
  EXPECT_EQ(tree.metrics().items_at_root, 360u);
  const core::ApproxResult result = tree.close_window();
  EXPECT_DOUBLE_EQ(result.estimated_count, 360.0);
  tree.stop();
}

}  // namespace
}  // namespace approxiot
