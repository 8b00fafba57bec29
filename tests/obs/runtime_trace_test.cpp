// End-to-end observability across every runtime: a 64-node
// ConcurrentEdgeTree (plus a flowqueue bridge sharing the registry) must
// produce a chrome://tracing-loadable trace whose spans carry
// policy-epoch annotations, and one Prometheus snapshot covering tree,
// bridge and flowqueue metrics. Instrumentation must never perturb
// sampling: stats-on and stats-off runs are bit-identical.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/wire.hpp"
#include "flowqueue/producer.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "runtime/concurrent_tree.hpp"
#include "runtime/flowqueue_bridge.hpp"

namespace approxiot::runtime {
namespace {

std::vector<std::vector<std::vector<Item>>> make_workload(std::size_t ticks,
                                                          std::size_t leaves,
                                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::vector<Item>>> workload(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    workload[t].resize(leaves);
    for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
      const std::size_t n = rng.next_below(60);
      for (std::size_t i = 0; i < n; ++i) {
        workload[t][leaf].push_back(Item{SubStreamId{1 + rng.next_below(4)},
                                         rng.next_double() * 10.0,
                                         static_cast<std::int64_t>(t) * 1000});
      }
    }
  }
  return workload;
}

TEST(ObsRuntimeTraceTest, SixtyFourNodeTraceAndCrossRuntimePrometheus) {
#ifdef APPROXIOT_NO_STATS
  GTEST_SKIP() << "observability hooks compiled out";
#endif
  obs::StatsRegistry stats;
  obs::Tracer tracer;

  // --- the 64-node tree (63 sampling nodes + root) --------------------
  ConcurrentTreeConfig config;
  config.tree.layer_widths = {32, 16, 8, 4, 2, 1};
  config.tree.sampling_fraction = 0.4;
  config.tree.rng_seed = 20180701;
  config.tree.control_plane = core::make_control_plane(config.tree);
  config.stats = &stats;
  config.tracer = &tracer;
  ConcurrentEdgeTree tree(config);

  const auto workload = make_workload(6, tree.leaf_count(), 42);
  for (std::size_t t = 0; t < workload.size(); ++t) {
    if (t == 3) {
      // Quiesce first so the earlier intervals demonstrably execute
      // under epoch 0 (nodes resolve the policy at processing time, not
      // push time), then switch to epoch 1 mid-run.
      tree.drain();
      tree.publish_fraction(0.2);
    }
    tree.push_interval(workload[t]);
  }
  tree.drain();
  (void)tree.close_window();
  tree.stop();

  // One track per node plus the control track.
  EXPECT_GE(tracer.track_count(), 65u);
  EXPECT_GT(tracer.event_count(), 0u);

  const std::string trace = tracer.to_chrome_json();
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(trace.back(), '}');
  // Per-node spans with the policy epoch resolved at execution time.
  EXPECT_NE(trace.find("\"name\":\"stage-execute\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"window-close\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"policy-publish\""), std::string::npos);
  EXPECT_NE(trace.find("\"policy_epoch\":0"), std::string::npos);
  EXPECT_NE(trace.find("\"policy_epoch\":1"), std::string::npos);
  // Track names span the whole topology.
  EXPECT_NE(trace.find("tree/L0/n0"), std::string::npos);
  EXPECT_NE(trace.find("tree/L0/n31"), std::string::npos);
  EXPECT_NE(trace.find("tree/L5/n0"), std::string::npos);
  EXPECT_NE(trace.find("tree/root"), std::string::npos);

  // --- flowqueue bridge on the same registry ---------------------------
  // The bridge's own tree stays unbound, so the tree/ stats above keep
  // describing the 64-node run alone.
  flowqueue::Broker broker;
  ASSERT_TRUE(broker.create_topic("in", 1).is_ok());
  FlowQueueSink sink(broker, "out", &stats);
  ConcurrentTreeConfig bridge_tree_config;
  bridge_tree_config.tree.layer_widths = {2};
  bridge_tree_config.tree.engine = core::EngineKind::kNative;
  bridge_tree_config.root_tap = sink.as_root_tap();
  ConcurrentEdgeTree bridge_tree(bridge_tree_config);
  FlowQueueSourceConfig source_config;
  source_config.topic = "in";
  source_config.poll_batch = 2;  // leaves records unread after a poll
  FlowQueueSource source(broker, bridge_tree, source_config, &stats);
  ASSERT_TRUE(source.start().is_ok());

  flowqueue::Producer producer(broker);
  for (int i = 0; i < 5; ++i) {
    core::ItemBundle bundle;
    bundle.items.push_back(Item{SubStreamId{1}, 1.0, i});
    ASSERT_TRUE(producer
                    .send("in", std::string("k").append(std::to_string(i)),
                          core::encode_bundle(bundle),
                          SimTime::from_millis(i))
                    .is_ok());
  }
  ASSERT_TRUE(source.run_until_idle(1).is_ok());
  // One poll of two records: the consumer's watermark shows three unread.
  EXPECT_DOUBLE_EQ(stats.snapshot().gauges.at("bridge/source/in/lag"), 3.0);
  ASSERT_TRUE(source.run_until_idle().is_ok());
  source.flush();
  bridge_tree.drain();
  bridge_tree.stop();
  broker.export_stats(stats, "flowqueue");

  // --- one Prometheus snapshot covering tree, bridge and flowqueue ------
  const std::string prom = stats.snapshot().to_prometheus();
  // tree: per-node interval latency + occupancy + policy state
  EXPECT_NE(prom.find("approxiot_tree_root_exec_us"), std::string::npos);
  EXPECT_NE(prom.find("approxiot_tree_L0_n0_occupancy"), std::string::npos);
  EXPECT_NE(prom.find("approxiot_tree_L0_n0_in0_depth"), std::string::npos);
  EXPECT_NE(prom.find("approxiot_tree_policy_epoch"), std::string::npos);
  EXPECT_NE(prom.find("approxiot_tree_windows_closed"), std::string::npos);
  // bridge: the source consumer's watermarks + records bridged
  EXPECT_NE(prom.find("approxiot_bridge_source_in_lag"), std::string::npos);
  EXPECT_NE(prom.find("approxiot_bridge_records_bridged"),
            std::string::npos);
  EXPECT_NE(prom.find("approxiot_bridge_bundles_published"),
            std::string::npos);
  // flowqueue: broker topic depth
  EXPECT_NE(prom.find("approxiot_flowqueue_topic_in_records"),
            std::string::npos);

  // Policy gauges reflect the mid-run publish.
  const auto snap = stats.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("tree/policy/epoch"), 1.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("tree/policy/fraction"), 0.2);
  EXPECT_EQ(snap.counters.at("tree/windows_closed"), 1u);
  EXPECT_EQ(snap.counters.at("bridge/records_bridged"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("bridge/source/in/lag"), 0.0);
}

// The acceptance bar for zero perturbation: the same seeded workload
// produces bit-identical query answers with instrumentation fully on
// (stats + tracer) and fully off (no registry, no tracer) — the hooks
// read clocks and counters, never the sampling RNG streams.
TEST(ObsRuntimeTraceTest, InstrumentationIsBitIdenticalOnAndOff) {
  auto run = [](bool instrumented) {
    obs::StatsRegistry stats;
    obs::Tracer tracer;
    ConcurrentTreeConfig config;
    config.tree.layer_widths = {4, 2};
    config.tree.sampling_fraction = 0.4;
    config.tree.rng_seed = 20180701;
    config.tree.control_plane = core::make_control_plane(config.tree);
    if (instrumented) {
      config.stats = &stats;
      config.tracer = &tracer;
    }
    ConcurrentEdgeTree tree(config);
    const auto workload = make_workload(10, tree.leaf_count(), 7);
    for (std::size_t t = 0; t < workload.size(); ++t) {
      if (t == 5) tree.publish_fraction(0.8);
      tree.push_interval(workload[t]);
      if (t == 4) tree.drain();  // quiesce so the swap lands identically
    }
    tree.drain();
    auto result = tree.close_window();
    tree.stop();
    return result;
  };

  const auto on = run(true);
  const auto off = run(false);
  EXPECT_EQ(on.sum.point, off.sum.point);
  EXPECT_EQ(on.sum.margin, off.sum.margin);
  EXPECT_EQ(on.mean.point, off.mean.point);
  EXPECT_EQ(on.estimated_count, off.estimated_count);
  EXPECT_EQ(on.sampled_items, off.sampled_items);
  EXPECT_EQ(on.policy_epoch, off.policy_epoch);
}

}  // namespace
}  // namespace approxiot::runtime
