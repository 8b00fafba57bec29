#include "workloads.hpp"

#include <memory>
#include <stdexcept>

#include "workload/generators.hpp"
#include "workload/ground_truth.hpp"
#include "workload/substream.hpp"

namespace edgebench {

namespace aw = approxiot::workload;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> all(3);
    // The paper's 4-2-1 testbed at saturation: the data plane (kernels,
    // reservoirs, weight maps) does nearly all the work.
    all[0].name = "testbed_bulk";
    all[0].layer_widths = {4, 2};
    all[0].fraction = 0.1;
    all[0].oracle_windows = 10;
    // 1,001 nodes with 20 items per leaf: the runtime's fixed cost per
    // node-interval dominates.
    all[1].name = "wide_tree";
    all[1].layer_widths = {800, 160, 32, 8};
    all[1].fraction = 0.4;
    all[1].oracle_windows = 3;
    all[1].accuracy_windows = 150;
    all[1].pool_intervals = 13;
    // Fixed offered rate on the 4-2-1 tree with one hot leaf, queries
    // after every push and a policy epoch per window.
    all[2].name = "skew_openloop";
    all[2].layer_widths = {4, 2};
    all[2].fraction = 0.1;
    all[2].period_us = 5000;
    all[2].query_after_push = true;
    all[2].adaptive = true;
    all[2].oracle_windows = 10;
    all[2].pool_intervals = 13;
    return all;
  }();
  return kAll;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

namespace {

constexpr std::size_t kBulkItemsPerLeaf = 65536;
constexpr std::size_t kWideItemsPerLeaf = 20;
constexpr std::size_t kSkewItemsPerInterval = 65536;
constexpr std::size_t kToyDivisor = 64;

std::vector<std::vector<Item>> bulk_interval(aw::StreamGenerator& gen,
                                             std::size_t per_leaf) {
  // §V-A Gaussian quad, one sub-stream per leaf.
  std::vector<std::vector<Item>> interval;
  for (const auto& spec : gen.specs()) {
    interval.push_back(gen.generate(spec.id, per_leaf));
  }
  return interval;
}

std::vector<aw::SubStreamSpec> wide_specs(std::size_t leaves) {
  // One sub-stream per leaf, values drawn from the Gaussian quad in turn.
  const auto quad = aw::gaussian_quad();
  std::vector<aw::SubStreamSpec> specs;
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    aw::SubStreamSpec spec = quad[leaf % quad.size()];
    spec.id = approxiot::SubStreamId{leaf + 1};
    spec.name = "leaf" + std::to_string(leaf);
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

Inputs make_inputs(const Workload& workload, std::uint64_t seed, bool toy) {
  const std::size_t leaves = workload.layer_widths.front();
  Inputs in;
  if (workload.name == "testbed_bulk") {
    aw::StreamGenerator gen(aw::gaussian_quad(), seed);
    const std::size_t per_leaf =
        toy ? kBulkItemsPerLeaf / kToyDivisor : kBulkItemsPerLeaf;
    for (std::size_t k = 0; k < workload.pool_intervals; ++k) {
      in.pool.push_back(bulk_interval(gen, per_leaf));
    }
  } else if (workload.name == "wide_tree") {
    aw::StreamGenerator gen(wide_specs(leaves), seed);
    for (std::size_t k = 0; k < workload.pool_intervals; ++k) {
      std::vector<std::vector<Item>> interval;
      for (const auto& spec : gen.specs()) {
        interval.push_back(gen.generate(spec.id, kWideItemsPerLeaf));
      }
      in.pool.push_back(std::move(interval));
    }
  } else {
    // Fig. 10(c) extreme skew, sharded by sub-stream: one leaf carries 80%
    // of the items. The rate makes one 5 ms tick hold the whole interval.
    const std::size_t per_interval =
        toy ? kSkewItemsPerInterval / kToyDivisor : kSkewItemsPerInterval;
    const auto dt = approxiot::SimTime::from_micros(workload.period_us);
    aw::StreamGenerator gen(
        aw::skewed_poisson(static_cast<double>(per_interval) * 1e6 /
                           static_cast<double>(workload.period_us)),
        seed);
    for (std::size_t k = 0; k < workload.pool_intervals; ++k) {
      const auto now = approxiot::SimTime::from_micros(
          static_cast<std::int64_t>(k) * workload.period_us);
      in.pool.push_back(aw::shard_by_substream(gen.tick(now, dt), leaves));
    }
  }

  for (const auto& interval : in.pool) {
    aw::GroundTruth truth;
    for (const auto& leaf : interval) truth.add_all(leaf);
    in.exact_sum.push_back(truth.total_sum());
    in.exact_count.push_back(truth.total_count());
  }
  return in;
}

void stamp_interval(std::vector<std::vector<Item>>& interval,
                    std::int64_t stamp) {
  for (auto& leaf : interval) {
    for (Item& item : leaf) item.created_at_us = stamp;
  }
}

approxiot::runtime::ConcurrentTreeConfig tree_config(const Workload& workload,
                                                     std::uint64_t seed) {
  approxiot::runtime::ConcurrentTreeConfig config;
  config.tree.layer_widths = workload.layer_widths;
  config.tree.sampling_fraction = workload.fraction;
  config.tree.rng_seed = 0x9e3779b97f4a7c15ULL ^ seed;
  config.runtime_mode = approxiot::runtime::RuntimeMode::kEvents;
  config.event_workers = kEventWorkers;
  config.adaptive.enabled = workload.adaptive;
  return config;
}

}  // namespace edgebench
