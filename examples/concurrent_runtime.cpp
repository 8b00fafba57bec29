// Concurrent runtime quickstart: a 4-2-1 ApproxIoT tree where every node
// is a task on the runtime's work-stealing scheduler, driven by a
// wall-clock IntervalScheduler, with live stats. Contrast with
// edge_tree_pipeline.cpp, which ticks the same logical tree sequentially.
//
// Pass an output path to dump the run's stats registry in Prometheus
// text format (the file a node_exporter-style scrape would serve):
//   ./build/examples/example_concurrent_runtime metrics.prom
#include <cstdio>
#include <fstream>

#include "common/rng.hpp"
#include "obs/stats.hpp"
#include "runtime/concurrent_tree.hpp"
#include "runtime/scheduler.hpp"

using namespace approxiot;

int main(int argc, char** argv) {
  obs::StatsRegistry registry;

  runtime::ConcurrentTreeConfig config;
  config.tree.layer_widths = {4, 2};       // paper testbed shape (4-2-1)
  config.tree.engine = core::EngineKind::kApproxIoT;
  config.tree.sampling_fraction = 0.4;     // 40% end-to-end
  config.tree.rng_seed = 42;
  config.channel_capacity = 8;             // intervals in flight per edge
  config.backpressure = runtime::BackpressurePolicy::kBlock;
  config.stats = &registry;
  runtime::ConcurrentEdgeTree tree(config);

  std::printf("concurrent tree: %zu nodes on %zu scheduler workers\n",
              tree.node_count(), tree.worker_count());

  // 2 s window = 20 ticks of 100 ms; ~4k items/tick over 4 sub-streams.
  runtime::SchedulerConfig schedule;
  schedule.tick = SimTime::from_millis(100);
  schedule.ticks = 20;
  schedule.pace = runtime::SchedulerConfig::Pace::kWallClock;

  Rng rng(7);
  runtime::IntervalScheduler scheduler(
      tree, schedule,
      [&rng](std::size_t /*leaf*/, SimTime now, SimTime /*dt*/) {
        std::vector<Item> items;
        for (int i = 0; i < 1000; ++i) {
          items.push_back(
              Item{SubStreamId{1 + rng.next_below(4)},
                   rng.next_gaussian() + 10.0, now.us});
        }
        return items;
      });
  scheduler.run();

  const auto result = tree.close_window();
  tree.stop();

  const auto metrics = tree.metrics();
  std::printf("ingested %llu items, %llu reached the root (%.1f%%)\n",
              static_cast<unsigned long long>(metrics.items_ingested),
              static_cast<unsigned long long>(metrics.items_at_root),
              100.0 * static_cast<double>(metrics.items_at_root) /
                  static_cast<double>(metrics.items_ingested));
  std::printf("SUM  = %.1f +/- %.1f (95%%)\n", result.sum.point,
              result.sum.margin);
  std::printf("MEAN = %.3f +/- %.3f (95%%)\n", result.mean.point,
              result.mean.margin);
  std::printf("stats: %s\n", registry.snapshot().to_json().c_str());

  if (argc > 1) {
    std::ofstream out(argv[1]);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
    out << registry.snapshot().to_prometheus();
    std::printf("wrote Prometheus snapshot to %s\n", argv[1]);
  }
  return 0;
}
