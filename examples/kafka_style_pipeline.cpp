// Kafka-style pipeline: the paper's Fig. 4 architecture end to end —
// sources publish to a flowqueue topic, a FlowQueueSource feeds it into a
// two-layer ConcurrentEdgeTree (edge nodes, then datacenter nodes, each
// running the sampling module), a FlowQueueSink republishes the root's
// sample to a result topic, and the root Θ rebuilt from that topic
// answers the query with error bounds. This is the deployment shape of
// the original prototype (Kafka + Kafka Streams), reproduced on the
// in-process substrates.
//
// Run: ./build/examples/example_kafka_style_pipeline [seconds=3]
#include <cstdio>

#include "common/config.hpp"
#include "core/error.hpp"
#include "core/wire.hpp"
#include "flowqueue/broker.hpp"
#include "flowqueue/producer.hpp"
#include "runtime/concurrent_tree.hpp"
#include "runtime/flowqueue_bridge.hpp"
#include "workload/generators.hpp"
#include "workload/ground_truth.hpp"

using namespace approxiot;

int main(int argc, char** argv) {
  auto config = Config::from_args({argv + 1, argv + argc});
  if (!config) {
    std::fprintf(stderr, "bad arguments: %s\n",
                 config.status().to_string().c_str());
    return 1;
  }
  const auto seconds =
      static_cast<int>(config.value().get_int_or("seconds", 3));

  flowqueue::Broker broker;
  if (Status s = broker.create_topic("sources", 1); !s.is_ok()) {
    std::fprintf(stderr, "create_topic: %s\n", s.to_string().c_str());
    return 1;
  }

  // 4 edge nodes -> 2 datacenter nodes -> root; 35% per sampling layer
  // (edge, datacenter, root), ~4.3% end to end.
  runtime::FlowQueueSink sink(broker, "root");
  runtime::ConcurrentTreeConfig tree_config;
  tree_config.tree.layer_widths = {4, 2};
  tree_config.tree.sampling_fraction = 0.35 * 0.35 * 0.35;
  tree_config.tree.rng_seed = 55;
  tree_config.root_tap = sink.as_root_tap();
  runtime::ConcurrentEdgeTree tree(tree_config);

  runtime::FlowQueueSourceConfig source_config;
  source_config.topic = "sources";
  source_config.interval = tree_config.tree.interval;
  runtime::FlowQueueSource source(broker, tree, source_config);
  if (Status s = source.start(); !s.is_ok()) {
    std::fprintf(stderr, "source: %s\n", s.to_string().c_str());
    return 1;
  }

  // Publish the Gaussian microbenchmark mix, 10 ticks per second.
  workload::StreamGenerator gen(workload::gaussian_quad(5000.0), 55);
  workload::GroundTruth truth;
  flowqueue::Producer producer(broker);
  SimTime now = SimTime::from_millis(1);
  for (int tick = 0; tick < seconds * 10; ++tick) {
    auto items = gen.tick(now, SimTime::from_millis(100));
    truth.add_all(items);
    core::ItemBundle bundle;
    bundle.items = std::move(items);
    (void)producer.send("sources", "gen", core::encode_bundle(bundle), now);
    now = now + SimTime::from_millis(100);

    // Pump the source after each tick, like the poll loop of the
    // original prototype's stream task.
    (void)source.run_until_idle();
  }
  source.flush();  // releases the trailing interval
  tree.drain();
  tree.stop();

  // Drain the root topic into Θ and answer the query.
  core::ThetaStore theta;
  std::vector<flowqueue::Record> records;
  auto root_topic = broker.topic("root");
  if (!root_topic) return 1;
  root_topic.value()->partition(0).read(0, 1 << 20, records);
  for (const auto& record : records) {
    auto bundle = core::decode_bundle(record.value);
    if (!bundle) continue;
    core::SampledBundle sampled;
    sampled.w_out = bundle.value().w_in;
    for (const Item& item : bundle.value().items) {
      sampled.sample[item.source].push_back(item);
    }
    theta.add(sampled);
  }

  const core::ApproxResult result = core::approximate_query(theta);
  std::printf("kafka-style pipeline over %d s of stream\n", seconds);
  std::printf("  items generated : %llu\n",
              static_cast<unsigned long long>(truth.total_count()));
  std::printf("  items at root   : %llu (%.1f%%)\n",
              static_cast<unsigned long long>(theta.total_sampled()),
              100.0 * static_cast<double>(theta.total_sampled()) /
                  static_cast<double>(truth.total_count()));
  std::printf("  SUM estimate    : %.0f ± %.0f\n", result.sum.point,
              result.sum.margin);
  std::printf("  SUM exact       : %.0f\n", truth.total_sum());
  std::printf("  accuracy loss   : %.4f%%\n",
              workload::accuracy_loss_percent(result.sum.point,
                                              truth.total_sum()));
  return 0;
}
