// FlowQueueSource / FlowQueueSink: records round-trip from a topic,
// through the concurrent tree, and back into a topic.
#include <gtest/gtest.h>

#include <vector>

#include "core/wire.hpp"
#include "flowqueue/broker.hpp"
#include "flowqueue/consumer.hpp"
#include "flowqueue/producer.hpp"
#include "obs/stats.hpp"
#include "runtime/flowqueue_bridge.hpp"

namespace approxiot::runtime {
namespace {

constexpr char kInTopic[] = "sensor-bundles";
constexpr char kOutTopic[] = "root-samples";

core::ItemBundle bundle_of(std::uint64_t stream, std::size_t n,
                           std::int64_t at_us) {
  core::ItemBundle bundle;
  for (std::size_t i = 0; i < n; ++i) {
    bundle.items.push_back(Item{SubStreamId{stream}, 1.0, at_us});
  }
  return bundle;
}

TEST(FlowQueueBridgeTest, TopicToTreeToTopicRoundTrip) {
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic(kInTopic, 2).is_ok());

  obs::StatsRegistry registry;
  FlowQueueSink sink(broker, kOutTopic, &registry);

  ConcurrentTreeConfig tree_config;
  tree_config.tree.layer_widths = {2};
  tree_config.tree.engine = core::EngineKind::kNative;  // exact: easy to check
  tree_config.root_tap = sink.as_root_tap();
  ConcurrentEdgeTree tree(tree_config);

  // Three intervals of wire-encoded bundles, 1 s apart.
  flowqueue::Producer producer(broker);
  std::uint64_t bytes_sent = 0;
  for (std::int64_t k = 0; k < 3; ++k) {
    const SimTime ts = SimTime::from_seconds(static_cast<double>(k));
    for (std::uint64_t stream = 1; stream <= 2; ++stream) {
      auto payload =
          core::encode_bundle(bundle_of(stream, 10 * stream, ts.us));
      bytes_sent += payload.size();
      // Built in two steps: GCC 12's -Wrestrict false-fires on the
      // one-expression char*/to_string concatenation when inlined here.
      std::string key = "s";
      key += std::to_string(stream);
      ASSERT_TRUE(
          producer.send(kInTopic, key, std::move(payload), ts).is_ok());
    }
  }

  FlowQueueSourceConfig source_config;
  source_config.topic = kInTopic;
  source_config.interval = SimTime::from_seconds(1.0);
  FlowQueueSource source(broker, tree, source_config, &registry);
  ASSERT_TRUE(source.start().is_ok());

  auto pushed = source.run_until_idle();
  ASSERT_TRUE(pushed.is_ok());
  const std::size_t total_pushed = pushed.value() + source.flush();
  EXPECT_EQ(total_pushed, 3u);
  EXPECT_EQ(source.records_bridged(), 6u);
  EXPECT_EQ(source.decode_errors(), 0u);

  tree.drain();
  tree.stop();

  // Native engine forwards everything: 3 x (10 + 20) items at the root.
  EXPECT_EQ(tree.metrics().items_at_root, 90u);

  // The sink republished the root's bundles; decode and re-count.
  flowqueue::Consumer checker(broker, "checker");
  ASSERT_TRUE(
      checker.assign({flowqueue::TopicPartition{kOutTopic, 0}}).is_ok());
  auto records = checker.poll(1000);
  ASSERT_TRUE(records.is_ok());
  EXPECT_GT(records.value().size(), 0u);
  std::size_t republished_items = 0;
  std::uint64_t republished_bytes = 0;
  for (const auto& record : records.value()) {
    auto decoded = core::decode_bundle(record.value);
    ASSERT_TRUE(decoded.is_ok());
    republished_items += decoded.value().items.size();
    republished_bytes += record.value.size();
  }
  EXPECT_EQ(republished_items, 90u);
  EXPECT_EQ(sink.bundles_published(), records.value().size());

#ifndef APPROXIOT_NO_STATS
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("bridge/records_bridged"), 6u);
  EXPECT_EQ(snap.counters.at("bridge/bytes_bridged"), bytes_sent);
  EXPECT_EQ(snap.counters.at("bridge/bundles_published"),
            sink.bundles_published());
  EXPECT_EQ(snap.counters.at("bridge/bytes_published"), republished_bytes);
#else
  (void)bytes_sent;
  (void)republished_bytes;
#endif
}

TEST(FlowQueueBridgeTest, GapsBecomeEmptyIntervals) {
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic(kInTopic, 1).is_ok());

  ConcurrentTreeConfig tree_config;
  tree_config.tree.layer_widths = {2};
  tree_config.tree.engine = core::EngineKind::kNative;
  ConcurrentEdgeTree tree(tree_config);

  // Bundles at t = 0 s and t = 4 s: the bridge must emit the three quiet
  // intervals in between so window alignment survives.
  flowqueue::Producer producer(broker);
  for (std::int64_t sec : {0, 4}) {
    const SimTime ts = SimTime::from_seconds(static_cast<double>(sec));
    ASSERT_TRUE(producer
                    .send(kInTopic, "k",
                          core::encode_bundle(bundle_of(1, 5, ts.us)), ts)
                    .is_ok());
  }

  FlowQueueSourceConfig source_config;
  source_config.topic = kInTopic;
  FlowQueueSource source(broker, tree, source_config);
  ASSERT_TRUE(source.start().is_ok());
  auto pushed = source.run_until_idle();
  ASSERT_TRUE(pushed.is_ok());
  const std::size_t total = pushed.value() + source.flush();
  EXPECT_EQ(total, 5u);  // intervals 0..4 inclusive

  tree.drain();
  tree.stop();
  EXPECT_EQ(tree.metrics().intervals_pushed, 5u);
  EXPECT_EQ(tree.metrics().items_at_root, 10u);
}

// Partition-aware flushing: once the consumer's watermarks show every
// partition read to its end offset, completed intervals flush mid-stream
// — no empty poll needed. This is the hot-topic path: the old bridge
// only flushed on poll-idle, so a topic that never drained between polls
// buffered until the force-flush safety valve.
TEST(FlowQueueBridgeTest, WatermarkFlushReleasesIntervalsWithoutIdlePoll) {
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic(kInTopic, 1).is_ok());

  ConcurrentTreeConfig tree_config;
  tree_config.tree.layer_widths = {2};
  tree_config.tree.engine = core::EngineKind::kNative;
  ConcurrentEdgeTree tree(tree_config);

  // 100 records spanning intervals 0..9 (10 per second-long interval).
  flowqueue::Producer producer(broker);
  for (int k = 0; k < 100; ++k) {
    const SimTime ts = SimTime::from_millis(k * 100);
    ASSERT_TRUE(producer
                    .send(kInTopic, "k",
                          core::encode_bundle(bundle_of(1, 1, ts.us)), ts)
                    .is_ok());
  }

  FlowQueueSourceConfig source_config;
  source_config.topic = kInTopic;
  source_config.poll_batch = 8;  // 13 polls to drain; none comes back empty
  FlowQueueSource source(broker, tree, source_config);
  ASSERT_TRUE(source.start().is_ok());

  // Exactly enough cycles to consume every record — the loop ends at
  // max_cycles, so no idle (empty) poll ever happens. The watermark path
  // must have flushed intervals 0..8 anyway (9 stays buffered: more
  // records could still arrive for the newest interval).
  auto pushed = source.run_until_idle(13);
  ASSERT_TRUE(pushed.is_ok());
  EXPECT_EQ(pushed.value(), 9u);
  EXPECT_EQ(source.watermark_flushes(), 9u);
  EXPECT_EQ(source.records_bridged(), 100u);

  EXPECT_EQ(source.flush(), 1u);  // the trailing interval
  tree.drain();
  tree.stop();
  EXPECT_EQ(tree.metrics().intervals_pushed, 10u);
  EXPECT_EQ(tree.metrics().items_at_root, 100u);
}

TEST(FlowQueueBridgeTest, MalformedPayloadCountsAsDecodeError) {
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic(kInTopic, 1).is_ok());

  ConcurrentTreeConfig tree_config;
  tree_config.tree.layer_widths = {2};
  tree_config.tree.engine = core::EngineKind::kNative;
  ConcurrentEdgeTree tree(tree_config);

  flowqueue::Producer producer(broker);
  ASSERT_TRUE(
      producer.send(kInTopic, "bad", {0xde, 0xad}, SimTime::zero()).is_ok());

  FlowQueueSourceConfig source_config;
  source_config.topic = kInTopic;
  FlowQueueSource source(broker, tree, source_config);
  ASSERT_TRUE(source.start().is_ok());
  ASSERT_TRUE(source.run_until_idle().is_ok());
  EXPECT_EQ(source.decode_errors(), 1u);
  EXPECT_EQ(source.records_bridged(), 0u);
  tree.stop();
}

// Interval buckets use floor division, so a pre-origin timestamp lands
// below interval 0 — a tick that can never fire — and is counted late
// instead of folding into interval 0.
TEST(FlowQueueBridgeTest, PreOriginRecordsCountAsLate) {
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic(kInTopic, 1).is_ok());

  ConcurrentTreeConfig tree_config;
  tree_config.tree.layer_widths = {2};
  tree_config.tree.engine = core::EngineKind::kNative;
  ConcurrentEdgeTree tree(tree_config);

  flowqueue::Producer producer(broker);
  for (const SimTime ts : {SimTime::from_millis(-1), SimTime::zero()}) {
    ASSERT_TRUE(producer
                    .send(kInTopic, "k",
                          core::encode_bundle(bundle_of(1, 5, ts.us)), ts)
                    .is_ok());
  }

  FlowQueueSourceConfig source_config;
  source_config.topic = kInTopic;
  FlowQueueSource source(broker, tree, source_config);
  ASSERT_TRUE(source.start().is_ok());
  ASSERT_TRUE(source.run_until_idle().is_ok());
  EXPECT_EQ(source.flush(), 1u);
  tree.drain();
  tree.stop();
  EXPECT_EQ(source.late_records(), 1u);
  EXPECT_EQ(source.records_bridged(), 1u);
  EXPECT_EQ(tree.metrics().items_at_root, 5u);
}

// A sink's output is a weighted sample: every bundle carries W^in. Fed
// back into a source, its items would re-enter the leaves as raw
// weight-1 data and bias SUM/COUNT, so the source refuses each such
// bundle and counts it as a decode error.
TEST(FlowQueueBridgeTest, WeightedBundlesAreRefused) {
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic(kInTopic, 1).is_ok());

  FlowQueueSink sink(broker, kOutTopic);
  {
    ConcurrentTreeConfig tree_config;
    tree_config.tree.layer_widths = {2};
    tree_config.tree.sampling_fraction = 0.5;
    tree_config.root_tap = sink.as_root_tap();
    ConcurrentEdgeTree tree(tree_config);
    flowqueue::Producer producer(broker);
    for (std::int64_t k = 0; k < 3; ++k) {
      const SimTime ts = SimTime::from_seconds(static_cast<double>(k));
      ASSERT_TRUE(producer
                      .send(kInTopic, "k",
                            core::encode_bundle(bundle_of(1, 40, ts.us)), ts)
                      .is_ok());
    }
    FlowQueueSourceConfig source_config;
    source_config.topic = kInTopic;
    FlowQueueSource source(broker, tree, source_config);
    ASSERT_TRUE(source.start().is_ok());
    ASSERT_TRUE(source.run_until_idle().is_ok());
    source.flush();
    tree.stop();
  }
  ASSERT_GT(sink.bundles_published(), 0u);

  ConcurrentTreeConfig tree_config;
  tree_config.tree.layer_widths = {2};
  tree_config.tree.engine = core::EngineKind::kNative;
  ConcurrentEdgeTree tree(tree_config);
  FlowQueueSourceConfig source_config;
  source_config.topic = kOutTopic;
  source_config.group = "replay";
  FlowQueueSource source(broker, tree, source_config);
  ASSERT_TRUE(source.start().is_ok());
  ASSERT_TRUE(source.run_until_idle().is_ok());
  source.flush();
  tree.drain();
  tree.stop();

  EXPECT_EQ(source.decode_errors(), sink.bundles_published());
  EXPECT_EQ(source.records_bridged(), 0u);
  EXPECT_EQ(tree.metrics().items_ingested, 0u);
  EXPECT_EQ(tree.metrics().items_at_root, 0u);
}

}  // namespace
}  // namespace approxiot::runtime
