// Full-stack integration: workload generator -> flowqueue topic ->
// FlowQueueSource -> two-layer ConcurrentEdgeTree (the sampling module at
// every node) -> root Θ and FlowQueueSink -> approximate query with error
// bounds, checked against exact ground truth and against the sequential
// EdgeTree. This is the architecture of the paper's Fig. 4 wired end to
// end inside one process.
#include <gtest/gtest.h>

#include <vector>

#include "analytics/executor.hpp"
#include "core/error.hpp"
#include "core/pipeline.hpp"
#include "core/wire.hpp"
#include "flowqueue/broker.hpp"
#include "flowqueue/producer.hpp"
#include "runtime/concurrent_tree.hpp"
#include "runtime/flowqueue_bridge.hpp"
#include "workload/generators.hpp"
#include "workload/ground_truth.hpp"

namespace approxiot {
namespace {

TEST(EndToEndTest, TwoLayerKafkaStylePipeline) {
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic("sources", 1).is_ok());

  // 4 edge nodes -> 2 datacenter nodes -> root, WHS at every node, one
  // tree interval per 100 ms generator tick.
  core::EdgeTreeConfig tree_config;
  tree_config.layer_widths = {4, 2};
  tree_config.engine = core::EngineKind::kApproxIoT;
  tree_config.sampling_fraction = 0.1;
  tree_config.interval = SimTime::from_millis(100);
  tree_config.rng_seed = 13;

  runtime::FlowQueueSink sink(broker, "root");
  runtime::ConcurrentTreeConfig runtime_config;
  runtime_config.tree = tree_config;
  runtime_config.root_tap = sink.as_root_tap();
  runtime::ConcurrentEdgeTree tree(runtime_config);

  // Publish four Gaussian sub-streams (the paper's microbenchmark mix);
  // the sequential oracle gets the same ticks, sharded the way the
  // bridge shards them.
  core::EdgeTree oracle(tree_config);
  workload::StreamGenerator gen(workload::gaussian_quad(2000.0), 13);
  workload::GroundTruth truth;
  flowqueue::Producer producer(broker);
  SimTime now = SimTime::from_millis(1);
  for (int tick = 0; tick < 10; ++tick) {
    auto items = gen.tick(now, SimTime::from_millis(100));
    truth.add_all(items);
    oracle.tick(workload::shard_by_substream(items, oracle.leaf_count()));
    core::ItemBundle bundle;
    bundle.items = std::move(items);
    ASSERT_TRUE(
        producer.send("sources", "gen", core::encode_bundle(bundle), now)
            .is_ok());
    now = now + SimTime::from_millis(100);
  }

  runtime::FlowQueueSourceConfig source_config;
  source_config.topic = "sources";
  source_config.interval = tree_config.interval;
  runtime::FlowQueueSource source(broker, tree, source_config);
  ASSERT_TRUE(source.start().is_ok());
  auto pushed = source.run_until_idle();
  ASSERT_TRUE(pushed.is_ok());
  EXPECT_EQ(pushed.value() + source.flush(), 10u);
  EXPECT_EQ(source.decode_errors(), 0u);
  EXPECT_EQ(source.late_records(), 0u);
  tree.drain();

  // 0. The topic-fed concurrent tree is bit-identical to the sequential
  //    EdgeTree fed the same ticks.
  const core::ApproxResult result = tree.run_query();
  const core::ApproxResult expected = oracle.run_query();
  EXPECT_EQ(result.sum.point, expected.sum.point);
  EXPECT_EQ(result.sum.margin, expected.sum.margin);
  EXPECT_EQ(result.sampled_items, expected.sampled_items);

  // 1. Count invariant: exact reconstruction of per-stream counts.
  const core::ThetaStore& theta = tree.theta();
  ASSERT_FALSE(theta.sub_streams().empty());
  for (SubStreamId id : theta.sub_streams()) {
    EXPECT_NEAR(theta.estimated_original_count(id),
                static_cast<double>(truth.count(id)),
                static_cast<double>(truth.count(id)) * 1e-9)
        << "stream " << id;
  }

  // 2. The sample at the root is a small subset of the input.
  EXPECT_LT(theta.total_sampled(), truth.total_count() / 4);

  // 3. SUM estimate lands within a few percent of the exact answer on
  //    this well-behaved mix, and the error bound is honest about it.
  const double exact = truth.total_sum();
  EXPECT_NEAR(result.sum.point / exact, 1.0, 0.10);
  EXPECT_GT(result.sum.margin, 0.0);

  // 4. The analytics executor agrees with the core estimator.
  analytics::Query query;
  query.aggregate = analytics::Aggregate::kSum;
  EXPECT_DOUBLE_EQ(analytics::execute_approximate(query, theta).value.point,
                   result.sum.point);
  tree.stop();

  // 5. The sink republished exactly the root's sample.
  std::vector<flowqueue::Record> records;
  auto root_topic = broker.topic("root");
  ASSERT_TRUE(root_topic.is_ok());
  root_topic.value()->partition(0).read(0, 1000000, records);
  std::uint64_t republished = 0;
  for (const auto& record : records) {
    auto bundle = core::decode_bundle(record.value);
    ASSERT_TRUE(bundle.is_ok());
    republished += bundle.value().items.size();
  }
  EXPECT_EQ(republished, result.sampled_items);
}

TEST(EndToEndTest, ConsumerGroupSplitsLayerWork) {
  // Two sources in one consumer group, each feeding its own tree, share
  // the topic's partitions; together they must deliver everything
  // exactly once.
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic("wide", 2).is_ok());

  runtime::ConcurrentTreeConfig tree_config;
  tree_config.tree.layer_widths = {2};
  tree_config.tree.engine = core::EngineKind::kNative;  // keep everything
  runtime::ConcurrentEdgeTree tree_a(tree_config);
  runtime::ConcurrentEdgeTree tree_b(tree_config);

  runtime::FlowQueueSourceConfig source_config;
  source_config.topic = "wide";
  source_config.group = "edge-group";
  runtime::FlowQueueSource worker_a(broker, tree_a, source_config);
  runtime::FlowQueueSource worker_b(broker, tree_b, source_config);
  ASSERT_TRUE(worker_a.start().is_ok());
  ASSERT_TRUE(worker_b.start().is_ok());

  flowqueue::Producer producer(broker);
  std::uint64_t total_items = 0;
  for (int i = 0; i < 20; ++i) {
    core::ItemBundle bundle;
    for (int k = 0; k < 10; ++k) {
      bundle.items.push_back(Item{SubStreamId{1}, 1.0, 0});
    }
    total_items += bundle.items.size();
    ASSERT_TRUE(producer
                    .send_to_partition("wide",
                                       static_cast<std::uint32_t>(i % 2),
                                       "k", core::encode_bundle(bundle),
                                       SimTime::from_millis(i * 10))
                    .is_ok());
  }

  for (auto* worker : {&worker_a, &worker_b}) {
    ASSERT_TRUE(worker->run_until_idle().is_ok());
    worker->flush();
  }
  tree_a.drain();
  tree_b.drain();
  tree_a.stop();
  tree_b.stop();

  EXPECT_EQ(worker_a.records_bridged(), 10u);
  EXPECT_EQ(worker_b.records_bridged(), 10u);
  EXPECT_EQ(tree_a.metrics().items_at_root + tree_b.metrics().items_at_root,
            total_items);
}

}  // namespace
}  // namespace approxiot
