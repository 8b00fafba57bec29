// Runtime scaling bench: throughput and interval latency of the
// ConcurrentEdgeTree for the WHS (ApproxIoT) and SRS engines on the
// paper's 4-2-1 testbed shape, followed by a node-count sweep (100/1k/10k
// logical nodes) on a fixed 8-worker JobScheduler pool.
//
// Every node is its own scheduler task, so layers always pipeline; a WHS
// node samples with its own WHSampler on the task that runs it.
//
// Each configuration runs `reps` times and the best-throughput rep is
// reported (with its latency snapshot): background activity only ever
// slows a rep down, so best-of-N strips scheduler noise without biasing
// the comparison. Reps are interleaved across the configurations
// (ApproxIoT, SRS, ApproxIoT, SRS, ...) so slow machine windows —
// frequency scaling, noisy neighbours — hit every configuration alike
// instead of whichever one happened to be running.
//
// Latency is push_interval to root completion, read from the tree's
// "tree/interval_latency_us" histogram.
//
// Output: the human-readable tables plus one JSON line per engine in the
// shared bench_util shape. `--smoke` shrinks the run for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "obs/stats.hpp"
#include "runtime/concurrent_tree.hpp"

namespace {

using namespace approxiot;

struct RunResult {
  double throughput_items_per_s{0.0};
  double p50_us{0.0};
  double p99_us{0.0};
};

struct TreeShape {
  std::vector<std::size_t> layer_widths;
  std::size_t event_workers{0};
};

RunResult run_shape(core::EngineKind engine, const TreeShape& shape,
                    std::size_t intervals, std::size_t items_per_leaf) {
  obs::StatsRegistry registry;
  runtime::ConcurrentTreeConfig config;
  config.tree.layer_widths = shape.layer_widths;
  config.tree.engine = engine;
  config.tree.sampling_fraction = 0.4;
  config.tree.rng_seed = 20180701;
  config.channel_capacity = 8;
  config.event_workers = shape.event_workers;
  config.stats = &registry;
  runtime::ConcurrentEdgeTree tree(config);

  // Pre-generate the workload so generation cost stays out of the
  // measured section. 4 sub-streams interleaved, the paper's mix.
  Rng rng(7);
  std::vector<std::vector<Item>> interval(tree.leaf_count());
  for (auto& leaf : interval) {
    leaf.reserve(items_per_leaf);
    for (std::size_t i = 0; i < items_per_leaf; ++i) {
      leaf.push_back(
          Item{SubStreamId{1 + rng.next_below(4)}, rng.next_double(), 0});
    }
  }

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < intervals; ++k) tree.push_interval(interval);
  tree.drain();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  tree.stop();

  RunResult result;
  const auto metrics = tree.metrics();
  result.throughput_items_per_s =
      static_cast<double>(metrics.items_ingested) / elapsed.count();
  // Absent when the stats hooks are compiled out: latency then reads 0.
  const obs::StatsSnapshot snap = registry.snapshot();
  const auto latency = snap.histograms.find("tree/interval_latency_us");
  if (latency != snap.histograms.end()) {
    result.p50_us = latency->second.p50;
    result.p99_us = latency->second.p99;
  }
  return result;
}

/// Node-count sweep topologies: ~10x per step, widths decreasing by the
/// tree-config rule (non-increasing towards the root), total node count
/// (incl. root) just over the nominal x value.
TreeShape nodes_shape(int nominal_nodes) {
  TreeShape shape;
  switch (nominal_nodes) {
    case 100:
      shape.layer_widths = {80, 16, 4};  // 101 nodes
      break;
    case 1000:
      shape.layer_widths = {800, 160, 32, 8};  // 1001 nodes
      break;
    default:
      shape.layer_widths = {8000, 1600, 320, 64, 16};  // 10001 nodes
      break;
  }
  return shape;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\nunknown argument: %s\n",
                   argv[0], argv[i]);
      return 2;
    }
  }
  const std::size_t intervals = smoke ? 5 : 40;
  const std::size_t items_per_leaf = smoke ? 2000 : 25000;
  const int reps = smoke ? 2 : 3;

  // --- the paper's 4-2-1 testbed tree, once per engine ---
  const std::vector<core::EngineKind> engines = {core::EngineKind::kApproxIoT,
                                                 core::EngineKind::kSrs};
  TreeShape testbed;
  testbed.layer_widths = {4, 2};
  const int testbed_nodes = 7;

  bench::print_header("runtime scaling: ConcurrentEdgeTree",
                      "4-2-1 tree, fraction 0.4, " +
                          std::to_string(intervals) + " intervals x " +
                          std::to_string(4 * items_per_leaf) +
                          " items");
  std::printf("%-24s%12s%12s%12s\n", "engine", "items/s", "p50 us",
              "p99 us");

  std::vector<RunResult> best(engines.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t e = 0; e < engines.size(); ++e) {
      const RunResult r =
          run_shape(engines[e], testbed, intervals, items_per_leaf);
      if (r.throughput_items_per_s > best[e].throughput_items_per_s) {
        best[e] = r;
      }
    }
  }
  for (std::size_t e = 0; e < engines.size(); ++e) {
    const RunResult& r = best[e];
    const std::string name = core::engine_kind_name(engines[e]);
    std::printf("%-24s%12.0f%12.1f%12.1f\n", name.c_str(),
                r.throughput_items_per_s, r.p50_us, r.p99_us);
    bench::print_json_result("runtime_scaling", name, "nodes",
                             {testbed_nodes},
                             {{"throughput_items_per_s",
                               {r.throughput_items_per_s}},
                              {"latency_p50_us", {r.p50_us}},
                              {"latency_p99_us", {r.p99_us}}});
  }

  // --- node-count sweep on a fixed 8-worker pool ---
  //
  // Node count is a data-structure dimension, not an OS-resource one:
  // every tree, up to 10k nodes, is multiplexed over the same 8 workers.
  const std::vector<int> node_counts = {100, 1000, 10000};
  const std::size_t node_intervals = smoke ? 3 : 8;
  const std::size_t node_items_per_leaf = smoke ? 5 : 20;
  const int node_reps = smoke ? 1 : 2;
  constexpr std::size_t kEventWorkers = 8;

  bench::print_header(
      "runtime scaling: node count",
      "leaves..root ~10x fan-in, fraction 0.4, " +
          std::to_string(node_intervals) + " intervals x " +
          std::to_string(node_items_per_leaf) + " items/leaf, " +
          std::to_string(kEventWorkers) + " scheduler workers");
  bench::print_cols("nodes", node_counts);

  std::vector<RunResult> best_nodes(node_counts.size());
  for (int rep = 0; rep < node_reps; ++rep) {
    for (std::size_t n = 0; n < node_counts.size(); ++n) {
      TreeShape shape = nodes_shape(node_counts[n]);
      shape.event_workers = kEventWorkers;
      const RunResult r =
          run_shape(core::EngineKind::kApproxIoT, shape, node_intervals,
                    node_items_per_leaf);
      if (r.throughput_items_per_s > best_nodes[n].throughput_items_per_s) {
        best_nodes[n] = r;
      }
    }
  }

  std::vector<double> tp, p50, p99;
  for (const RunResult& r : best_nodes) {
    tp.push_back(r.throughput_items_per_s);
    p50.push_back(r.p50_us);
    p99.push_back(r.p99_us);
  }
  bench::print_row("items/s", tp, "%12.0f");
  bench::print_row("p50 us", p50, "%12.1f");
  bench::print_row("p99 us", p99, "%12.1f");
  bench::print_json_result("runtime_scaling_nodes", "approxiot", "nodes",
                           node_counts,
                           {{"events_throughput_items_per_s", tp},
                            {"events_latency_p50_us", p50},
                            {"events_latency_p99_us", p99}});
  return 0;
}
