// The event-driven runtime vs the sequential core::EdgeTree oracle: it
// must be BIT-IDENTICAL — same Θ, same query answer, same per-layer
// forwarded counts, and wire records that decode to the same Θ — because
// a node task never runs on two workers at once, Ψ is assembled in child
// order, and every RNG lives in the node's stage. The worker count may
// only change wall-clock interleaving, never a single sample, from a
// 7-node tree on 3 workers up to 11,111 nodes on 8.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/control_plane.hpp"
#include "core/pipeline.hpp"
#include "core/wire.hpp"
#include "flowqueue/broker.hpp"
#include "runtime/concurrent_tree.hpp"
#include "runtime/flowqueue_bridge.hpp"

namespace approxiot::runtime {
namespace {

using core::EdgeTree;
using core::EdgeTreeConfig;
using core::EngineKind;

/// Deterministic workload, items[tick][leaf] (same shape as the
/// concurrent-tree suite's helper: 4 sub-streams, occasionally tiny/empty
/// leaves).
std::vector<std::vector<std::vector<Item>>> make_workload(std::size_t ticks,
                                                          std::size_t leaves,
                                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::vector<Item>>> workload(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    workload[t].resize(leaves);
    for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
      const std::size_t n = rng.next_below(120);
      for (std::size_t i = 0; i < n; ++i) {
        workload[t][leaf].push_back(
            Item{SubStreamId{1 + rng.next_below(4)},
                 rng.next_double() * 10.0,
                 static_cast<std::int64_t>(t) * 1000});
      }
    }
  }
  return workload;
}

void expect_theta_identical(const core::ThetaStore& oracle,
                            const core::ThetaStore& events) {
  const auto oracle_streams = oracle.sub_streams();
  const auto event_streams = events.sub_streams();
  ASSERT_EQ(oracle_streams.size(), event_streams.size());
  for (std::size_t s = 0; s < oracle_streams.size(); ++s) {
    EXPECT_EQ(oracle_streams[s], event_streams[s]);
    const auto& oracle_pairs = oracle.pairs(oracle_streams[s]);
    const auto& event_pairs = events.pairs(oracle_streams[s]);
    ASSERT_EQ(oracle_pairs.size(), event_pairs.size())
        << "stream " << oracle_streams[s];
    for (std::size_t p = 0; p < oracle_pairs.size(); ++p) {
      EXPECT_EQ(oracle_pairs[p].weight, event_pairs[p].weight)
          << "stream " << oracle_streams[s] << " pair " << p;
      ASSERT_EQ(oracle_pairs[p].items.size(), event_pairs[p].items.size());
      for (std::size_t i = 0; i < oracle_pairs[p].items.size(); ++i) {
        EXPECT_EQ(oracle_pairs[p].items[i], event_pairs[p].items[i]);
      }
    }
  }
}

/// Folds one decoded root record into Θ the way ThetaStore::add folds the
/// SampledBundle it was encoded from: the encoder writes the sample
/// stratum by stratum, so each run of one sub-stream's items is one
/// (W^out, items) pair.
void fold_into_theta(const core::ItemBundle& bundle,
                     core::ThetaStore& theta) {
  auto begin = bundle.items.begin();
  while (begin != bundle.items.end()) {
    const SubStreamId id = begin->source;
    auto end = begin;
    while (end != bundle.items.end() && end->source == id) ++end;
    core::WeightedSample pair;
    pair.weight = bundle.w_in.get(id);
    pair.items.assign(begin, end);
    theta.add_pair(id, std::move(pair), bundle.policy_epoch);
    begin = end;
  }
}

ConcurrentTreeConfig runtime_config_for(const EdgeTreeConfig& tree,
                                        std::size_t event_workers) {
  ConcurrentTreeConfig config;
  config.tree = tree;
  config.channel_capacity = 4;  // small enough that parking really happens
  config.backpressure = BackpressurePolicy::kBlock;
  config.event_workers = event_workers;
  return config;
}

class EventsEngineEquivalenceTest
    : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EventsEngineEquivalenceTest, EventsTreeIsBitIdenticalToEdgeTree) {
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {4, 2};
  tree_config.engine = GetParam();
  tree_config.sampling_fraction = 0.4;
  tree_config.rng_seed = 20180701;

  // 7 nodes multiplexed over 3 workers: tasks genuinely park, resume and
  // migrate between workers mid-run.
  EdgeTree sequential(tree_config);
  ConcurrentEdgeTree events(runtime_config_for(tree_config, 3));
  EXPECT_EQ(events.node_count(), 7u);

  const auto workload = make_workload(24, sequential.leaf_count(), 77);
  for (const auto& tick : workload) {
    sequential.tick(tick);
    events.push_interval(tick);
  }
  events.drain();

  const auto seq_metrics = sequential.metrics();
  const auto event_metrics = events.metrics();
  EXPECT_EQ(seq_metrics.items_ingested, event_metrics.items_ingested);
  EXPECT_EQ(seq_metrics.items_at_root, event_metrics.items_at_root);
  ASSERT_EQ(seq_metrics.items_forwarded_per_layer.size(),
            event_metrics.items_forwarded_per_layer.size());
  for (std::size_t l = 0; l < seq_metrics.items_forwarded_per_layer.size();
       ++l) {
    EXPECT_EQ(seq_metrics.items_forwarded_per_layer[l],
              event_metrics.items_forwarded_per_layer[l]);
  }
  EXPECT_EQ(event_metrics.messages_dropped, 0u);
  EXPECT_EQ(event_metrics.intervals_completed, workload.size());

  const auto seq_result = sequential.run_query();
  const auto event_result = events.run_query();
  EXPECT_EQ(seq_result.sum.point, event_result.sum.point);
  EXPECT_EQ(seq_result.sum.margin, event_result.sum.margin);
  EXPECT_EQ(seq_result.sampled_items, event_result.sampled_items);
  EXPECT_EQ(seq_result.estimated_count, event_result.estimated_count);

  events.stop();
  expect_theta_identical(sequential.theta(), events.theta());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EventsEngineEquivalenceTest,
                         ::testing::Values(EngineKind::kApproxIoT,
                                           EngineKind::kSrs,
                                           EngineKind::kNative,
                                           EngineKind::kSnapshot));

TEST(EventsTreeTest, WorkerCountNeverChangesTheOutput) {
  // 1 worker (fully serialized) vs 7 workers (maximal interleaving on
  // this topology): the scheduler may only change wall-clock order.
  auto run = [](std::size_t event_workers) {
    EdgeTreeConfig tree_config;
    tree_config.layer_widths = {4, 2};
    tree_config.engine = EngineKind::kApproxIoT;
    tree_config.sampling_fraction = 0.35;
    tree_config.rng_seed = 1234;
    ConcurrentEdgeTree tree(runtime_config_for(tree_config, event_workers));
    const auto workload = make_workload(16, tree.leaf_count(), 9);
    for (const auto& tick : workload) tree.push_interval(tick);
    tree.drain();
    tree.stop();
    return tree.run_query();
  };
  const auto serial = run(1);
  const auto parallel = run(7);
  EXPECT_EQ(serial.sum.point, parallel.sum.point);
  EXPECT_EQ(serial.sum.margin, parallel.sum.margin);
  EXPECT_EQ(serial.sampled_items, parallel.sampled_items);
}

TEST(EventsTreeTest, TenThousandNodeTreeMatchesSequentialEdgeTree) {
  // The scale claim: 11'111 logical nodes in ONE process on an 8-worker
  // pool — one OS thread per node would need 11k of them — and still
  // bit-identical to the sequential reference, interval for interval. Workload is kept tiny (one item per leaf per tick) so the
  // run is dominated by scheduling, which is exactly what is under test.
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {10000, 1000, 100, 10};
  tree_config.engine = EngineKind::kApproxIoT;
  tree_config.sampling_fraction = 0.5;
  tree_config.rng_seed = 31337;

  EdgeTree sequential(tree_config);
  ConcurrentEdgeTree events(runtime_config_for(tree_config, 8));
  EXPECT_EQ(events.node_count(), 11111u);

  constexpr std::size_t kTicks = 3;
  for (std::size_t t = 0; t < kTicks; ++t) {
    std::vector<std::vector<Item>> tick(sequential.leaf_count());
    for (std::size_t leaf = 0; leaf < tick.size(); ++leaf) {
      tick[leaf].push_back(Item{SubStreamId{1 + leaf % 4},
                                static_cast<double>(leaf % 10),
                                static_cast<std::int64_t>(t) * 1000});
    }
    sequential.tick(tick);
    events.push_interval(tick);
  }
  events.drain();
  events.stop();

  const auto seq_metrics = sequential.metrics();
  const auto event_metrics = events.metrics();
  EXPECT_EQ(seq_metrics.items_ingested, event_metrics.items_ingested);
  EXPECT_EQ(seq_metrics.items_at_root, event_metrics.items_at_root);
  EXPECT_EQ(event_metrics.intervals_completed, kTicks);
  EXPECT_EQ(event_metrics.messages_dropped, 0u);
  expect_theta_identical(sequential.theta(), events.theta());

  const auto seq_result = sequential.run_query();
  const auto event_result = events.run_query();
  EXPECT_EQ(seq_result.sum.point, event_result.sum.point);
  EXPECT_EQ(seq_result.sum.margin, event_result.sum.margin);
}

TEST(EventsTreeTest, WireRecordsDecodeToTheSequentialTheta) {
  // The root's output as it leaves the process: every record a
  // FlowQueueSink published, decoded and folded into a fresh Θ, must be
  // the sequential tree's Θ pair for pair. (That equal bundles encode to
  // equal bytes is pinned by the wire tests.)
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {4, 2};
  tree_config.engine = EngineKind::kApproxIoT;
  tree_config.sampling_fraction = 0.4;
  tree_config.rng_seed = 808;

  flowqueue::Broker broker;
  FlowQueueSink sink(broker, "wire-events");
  ConcurrentTreeConfig config = runtime_config_for(tree_config, 3);
  config.root_tap = sink.as_root_tap();
  EdgeTree sequential(tree_config);
  ConcurrentEdgeTree events(config);
  const auto workload = make_workload(12, sequential.leaf_count(), 21);
  for (const auto& tick : workload) {
    sequential.tick(tick);
    events.push_interval(tick);
  }
  events.drain();
  events.stop();
  ASSERT_GT(sink.bundles_published(), 0u);
  EXPECT_EQ(sink.publish_errors(), 0u);

  auto* topic = broker.topic("wire-events").value();
  ASSERT_EQ(topic->record_count(), sink.bundles_published());
  core::ThetaStore decoded_theta;
  for (std::uint32_t p = 0; p < topic->partition_count(); ++p) {
    std::vector<flowqueue::Record> records;
    topic->partition(p).read(0, 1 << 20, records);
    for (const flowqueue::Record& record : records) {
      auto decoded = core::decode_bundle(record.value);
      ASSERT_TRUE(decoded.is_ok());
      fold_into_theta(decoded.value(), decoded_theta);
    }
  }
  expect_theta_identical(sequential.theta(), decoded_theta);
}

TEST(EventsTreeChaosTest, WakeStormsAndConcurrentControlChangeNothing) {
  // Chaos: random node wake ordering. A background thread storms
  // spurious wakes into every task (kick()), another hammers run_query
  // and mid-stream policy publishes, the producer overloads a
  // 1-capacity drop-mode tree — and the surviving Θ must still be
  // internally consistent (native stages never reweight, so the
  // estimate equals the arrived count EXACTLY). Run under TSan, any
  // report in runtime code is a real bug.
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {8, 4, 2};
  tree_config.sampling_fraction = 1.0;
  tree_config.engine = EngineKind::kNative;
  tree_config.control_plane = core::make_control_plane(tree_config);

  ConcurrentTreeConfig config;
  config.tree = tree_config;
  config.channel_capacity = 1;  // overload: drops genuinely happen
  config.backpressure = BackpressurePolicy::kDropNewest;
  config.event_workers = 4;
  ConcurrentEdgeTree tree(config);

  std::atomic<bool> done{false};
  std::thread storm([&] {
    while (!done.load()) {
      tree.kick();  // spurious wakes in random interleavings
      std::this_thread::yield();
    }
  });
  std::thread control([&] {
    double fraction = 0.9;
    while (!done.load()) {
      (void)tree.run_query();
      tree.publish_fraction(fraction);
      fraction = fraction == 0.9 ? 0.8 : 0.9;
      std::this_thread::yield();
    }
  });

  std::vector<std::vector<Item>> interval(tree.leaf_count());
  for (std::size_t leaf = 0; leaf < interval.size(); ++leaf) {
    for (int i = 0; i < 50; ++i) {
      interval[leaf].push_back(Item{SubStreamId{1 + leaf % 4}, 1.0, 0});
    }
  }
  for (int k = 0; k < 120; ++k) tree.push_interval(interval);
  // Quiesce the chaos before stop(): a kicker that never pauses could
  // keep the shutdown drain (stop when no wake is pending) from ever
  // observing an empty queue on a small machine.
  done.store(true);
  storm.join();
  control.join();
  tree.stop();
  tree.kick();  // post-shutdown kicks must be harmless no-ops too

  const auto metrics = tree.metrics();
  EXPECT_EQ(metrics.intervals_pushed, 120u);
  EXPECT_LE(metrics.items_at_root, metrics.items_ingested);
  const auto& theta = tree.theta();
  double estimated = 0.0;
  for (const auto id : theta.sub_streams()) {
    estimated += theta.estimated_original_count(id);
  }
  EXPECT_DOUBLE_EQ(estimated, static_cast<double>(metrics.items_at_root));
}

TEST(EventsTreeTest, StopWithNothingPushedTerminates) {
  // The close cascade must reach the root even when no interval ever
  // flowed (every task sees drained inputs on its first wake).
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {16, 4};
  tree_config.engine = EngineKind::kNative;
  ConcurrentEdgeTree tree(runtime_config_for(tree_config, 2));
  tree.stop();
  EXPECT_EQ(tree.metrics().intervals_completed, 0u);
}

}  // namespace
}  // namespace approxiot::runtime
