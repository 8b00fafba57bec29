// Ablations of the design choices DESIGN.md calls out.
//
// 1. Allocation policy: equal (the paper's fairness) vs proportional
//    (collapses towards SRS) vs Neyman (variance-optimal extension) on
//    the extreme-skew workload — quantifies how much of ApproxIoT's
//    accuracy win comes from the equal split.
// 2. §III-E worker parallelism: single reservoir vs w workers with
//    reservoirs N/w (the single-threaded ParallelSampler model) — the
//    merged estimate must not lose accuracy.
#include <cstdio>

#include "analytics/experiment.hpp"
#include "common/rng.hpp"
#include "core/estimators.hpp"
#include "core/parallel.hpp"
#include "core/pipeline.hpp"
#include "core/theta_store.hpp"
#include "workload/generators.hpp"
#include "workload/ground_truth.hpp"
#include "workload/substream.hpp"
#include "workload/taxi.hpp"

namespace {

using namespace approxiot;

void allocation_ablation() {
  std::printf("\n--- Ablation 1: allocation policy on extreme skew "
              "(fraction 10%%) ---\n");
  std::printf("%-16s%16s%16s\n", "policy", "mean loss%", "max loss%");

  auto run_policy = [](core::EngineKind engine, const char* policy) {
    analytics::AccuracyExperimentConfig config;
    config.tree.engine = engine;
    // Single-leaf tree: all sub-streams mix inside each node, so the
    // allocation policy actually decides reservoir shares (with one
    // sub-stream per leaf the split is trivially moot).
    config.tree.layer_widths = {1};
    config.tree.sampling_fraction = 0.10;
    config.tree.allocation_policy = policy;
    config.tree.rng_seed = 777;
    config.windows = 15;
    config.ticks_per_window = 10;

    auto gen = std::make_shared<workload::StreamGenerator>(
        workload::skewed_poisson(20000.0), 777);
    return analytics::run_accuracy_experiment(
        config, [gen](SimTime now, SimTime dt) { return gen->tick(now, dt); });
  };

  for (const char* policy : {"equal", "proportional", "neyman"}) {
    auto result = run_policy(core::EngineKind::kApproxIoT, policy);
    std::printf("%-16s%16.4f%16.4f\n", policy, result.mean_sum_loss_pct,
                result.max_sum_loss_pct);
  }
  auto srs = run_policy(core::EngineKind::kSrs, "equal");
  std::printf("%-16s%16.4f%16.4f\n", "(SRS reference)",
              srs.mean_sum_loss_pct, srs.max_sum_loss_pct);
  std::printf("expected: all stratified policies comparable — each "
              "guarantees one slot per stratum,\nwhich is the entire win "
              "over SRS (reference row, orders of magnitude worse)\n");
}

void worker_ablation() {
  std::printf("\n--- Ablation 2: §III-E worker parallelism ---\n");
  std::printf("%-10s%16s%16s\n", "workers", "loss%", "count err");

  // 2M items, one hot sub-stream, reservoir 10k.
  const std::size_t n = 2000000;
  std::vector<Item> items;
  items.reserve(n);
  Rng rng(11);
  workload::GroundTruth truth;
  for (std::size_t i = 0; i < n; ++i) {
    Item item{SubStreamId{1}, 10.0 + rng.next_gaussian(), 0};
    truth.add(item);
    items.push_back(item);
  }

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    core::ParallelSampler sampler(workers, Rng(workers * 31 + 1));
    core::SampledBundle out;
    sampler.sample(items, 10000, core::WeightMap{}, out);

    core::ThetaStore theta;
    theta.add(out);
    const double loss = workload::accuracy_loss_percent(
        core::estimate_total_sum(theta), truth.total_sum());
    const double count_err =
        core::estimate_total_count(theta) - static_cast<double>(n);
    std::printf("%-10zu%16.4f%16.1f\n", workers, loss, count_err);
  }
  std::printf("expected: loss flat across worker counts, count err == 0 "
              "(Eq. 8 invariant survives the merge)\n");
}

void snapshot_ablation() {
  std::printf("\n--- Ablation 3: item-level sampling vs snapshot decimation "
              "(related work [38,39]) ---\n");
  std::printf("workload: diurnal taxi stream (arrival rate drifts within "
              "every query window)\n");
  std::printf("%-16s%16s%16s\n", "engine", "mean loss%", "max loss%");

  for (core::EngineKind engine :
       {core::EngineKind::kApproxIoT, core::EngineKind::kSnapshot}) {
    analytics::AccuracyExperimentConfig config;
    config.tree.engine = engine;
    config.tree.layer_widths = {4, 2};
    config.tree.sampling_fraction = 0.10;
    config.tree.rng_seed = 333;
    config.windows = 12;
    config.ticks_per_window = 10;

    workload::TaxiConfig taxi_config;
    taxi_config.mean_rate_items_per_s = 20000.0;
    taxi_config.day_length = SimTime::from_seconds(12.0);  // fast drift
    auto gen = std::make_shared<workload::TaxiGenerator>(taxi_config);
    auto result = analytics::run_accuracy_experiment(
        config, [gen](SimTime now, SimTime dt) { return gen->tick(now, dt); });
    std::printf("%-16s%16.4f%16.4f\n", core::engine_kind_name(engine),
                result.mean_sum_loss_pct, result.max_sum_loss_pct);
  }
  std::printf("expected: snapshot decimation is biased under drift (it "
              "extrapolates the kept tick);\nitem-level stratified sampling "
              "stays unbiased\n");
}

}  // namespace

int main() {
  std::printf("\n=== Ablation bench: design-choice sensitivity ===\n");
  allocation_ablation();
  worker_ablation();
  snapshot_ablation();
  return 0;
}
