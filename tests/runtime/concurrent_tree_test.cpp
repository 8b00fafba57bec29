// ConcurrentEdgeTree vs the sequential core::EdgeTree.
//
// With lossless (kBlock) channels, the concurrent runtime must be
// BIT-IDENTICAL to the sequential tree: same stages, same seeds, same Ψ
// ordering, therefore the same RNG draws, the same samples, the same
// weights, the same Θ, the same query answer.
// That is the strongest possible statement of the paper's no-coordination
// claim: adding threads changed nothing but wall-clock interleaving.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/estimators.hpp"
#include "core/pipeline.hpp"
#include "runtime/concurrent_tree.hpp"

namespace approxiot::runtime {
namespace {

using core::EdgeTree;
using core::EdgeTreeConfig;
using core::EngineKind;

/// Deterministic workload: `ticks` intervals of random items over 4
/// sub-streams, sharded across `leaves`. Returns items[tick][leaf].
std::vector<std::vector<std::vector<Item>>> make_workload(std::size_t ticks,
                                                          std::size_t leaves,
                                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::vector<Item>>> workload(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    workload[t].resize(leaves);
    for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
      const std::size_t n = rng.next_below(120);  // occasionally tiny/empty
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

void expect_theta_identical(const core::ThetaStore& sequential,
                            const core::ThetaStore& concurrent) {
  const auto seq_streams = sequential.sub_streams();
  const auto conc_streams = concurrent.sub_streams();
  ASSERT_EQ(seq_streams.size(), conc_streams.size());
  for (std::size_t s = 0; s < seq_streams.size(); ++s) {
    EXPECT_EQ(seq_streams[s], conc_streams[s]);
    const auto& seq_pairs = sequential.pairs(seq_streams[s]);
    const auto& conc_pairs = concurrent.pairs(seq_streams[s]);
    ASSERT_EQ(seq_pairs.size(), conc_pairs.size())
        << "stream " << seq_streams[s];
    for (std::size_t p = 0; p < seq_pairs.size(); ++p) {
      EXPECT_EQ(seq_pairs[p].weight, conc_pairs[p].weight)
          << "stream " << seq_streams[s] << " pair " << p;
      ASSERT_EQ(seq_pairs[p].items.size(), conc_pairs[p].items.size());
      for (std::size_t i = 0; i < seq_pairs[p].items.size(); ++i) {
        EXPECT_EQ(seq_pairs[p].items[i], conc_pairs[p].items[i]);
      }
    }
  }
}

class EngineEquivalenceTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineEquivalenceTest, SingleWorkerRunIsBitIdenticalToEdgeTree) {
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {4, 2};
  tree_config.engine = GetParam();
  tree_config.sampling_fraction = 0.4;
  tree_config.rng_seed = 20180701;

  EdgeTree sequential(tree_config);

  ConcurrentTreeConfig runtime_config;
  runtime_config.tree = tree_config;
  runtime_config.channel_capacity = 4;  // layers genuinely pipeline
  runtime_config.backpressure = BackpressurePolicy::kBlock;
  ConcurrentEdgeTree concurrent(runtime_config);

  const auto workload = make_workload(24, sequential.leaf_count(), 77);
  for (const auto& tick : workload) {
    sequential.tick(tick);
    concurrent.push_interval(tick);
  }
  concurrent.drain();

  // Same items reached the root...
  const auto seq_metrics = sequential.metrics();
  const auto conc_metrics = concurrent.metrics();
  EXPECT_EQ(seq_metrics.items_ingested, conc_metrics.items_ingested);
  EXPECT_EQ(seq_metrics.items_at_root, conc_metrics.items_at_root);
  ASSERT_EQ(seq_metrics.items_forwarded_per_layer.size(),
            conc_metrics.items_forwarded_per_layer.size());
  for (std::size_t l = 0; l < seq_metrics.items_forwarded_per_layer.size();
       ++l) {
    EXPECT_EQ(seq_metrics.items_forwarded_per_layer[l],
              conc_metrics.items_forwarded_per_layer[l]);
  }
  EXPECT_EQ(conc_metrics.messages_dropped, 0u);
  EXPECT_EQ(conc_metrics.intervals_completed, workload.size());

  // ...and Θ matches pair for pair, bit for bit.
  expect_theta_identical(sequential.theta(), concurrent.theta());

  // Belt and braces: identical query answers, exact double equality.
  const auto seq_result = sequential.run_query();
  const auto conc_result = concurrent.run_query();
  EXPECT_EQ(seq_result.sum.point, conc_result.sum.point);
  EXPECT_EQ(seq_result.sum.margin, conc_result.sum.margin);
  EXPECT_EQ(seq_result.mean.point, conc_result.mean.point);
  EXPECT_EQ(seq_result.mean.margin, conc_result.mean.margin);
  EXPECT_EQ(seq_result.estimated_count, conc_result.estimated_count);
  EXPECT_EQ(seq_result.sampled_items, conc_result.sampled_items);

  concurrent.stop();
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineEquivalenceTest,
                         ::testing::Values(EngineKind::kApproxIoT,
                                           EngineKind::kSrs,
                                           EngineKind::kNative,
                                           EngineKind::kSnapshot),
                         [](const auto& info) {
                           return core::engine_kind_name(info.param);
                         });

// The control-plane acceptance bar: binding a live control plane that
// stays at epoch 0 must change NOTHING — the concurrent tree resolving
// its budgets through policy handles every interval produces the same Θ,
// bit for bit, as the pre-refactor frozen-budget sequential tree.
class FixedPolicyEquivalenceTest
    : public ::testing::TestWithParam<EngineKind> {};

TEST_P(FixedPolicyEquivalenceTest, EpochZeroPlaneIsBitIdenticalToFrozen) {
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {4, 2};
  tree_config.engine = GetParam();
  tree_config.sampling_fraction = 0.4;
  tree_config.rng_seed = 20180701;

  // Reference: the sequential tree with budgets frozen at construction
  // (no control plane anywhere) — the pre-refactor behaviour.
  EdgeTree sequential(tree_config);

  // Subject: the concurrent runtime with a live plane bound to every
  // stage. Nobody ever publishes, so every interval resolves epoch 0.
  EdgeTreeConfig live_config = tree_config;
  live_config.control_plane = core::make_control_plane(live_config);
  ConcurrentTreeConfig runtime_config;
  runtime_config.tree = live_config;
  runtime_config.channel_capacity = 4;
  runtime_config.backpressure = BackpressurePolicy::kBlock;
  ConcurrentEdgeTree concurrent(runtime_config);

  const auto workload = make_workload(24, sequential.leaf_count(), 77);
  for (const auto& tick : workload) {
    sequential.tick(tick);
    concurrent.push_interval(tick);
  }
  concurrent.drain();

  expect_theta_identical(sequential.theta(), concurrent.theta());
  const auto seq_result = sequential.run_query();
  const auto conc_result = concurrent.run_query();
  EXPECT_EQ(seq_result.sum.point, conc_result.sum.point);
  EXPECT_EQ(seq_result.sum.margin, conc_result.sum.margin);
  EXPECT_EQ(seq_result.sampled_items, conc_result.sampled_items);
  // Everything in Θ is attributed to epoch 0.
  EXPECT_EQ(conc_result.policy_epoch, 0u);
  EXPECT_EQ(conc_result.policy_epoch_min, 0u);
  EXPECT_EQ(concurrent.policy_epoch(), 0u);

  concurrent.stop();
}

INSTANTIATE_TEST_SUITE_P(AllEngines, FixedPolicyEquivalenceTest,
                         ::testing::Values(EngineKind::kApproxIoT,
                                           EngineKind::kSrs,
                                           EngineKind::kSnapshot),
                         [](const auto& info) {
                           return core::engine_kind_name(info.param);
                         });

// A policy published between windows (workers quiescent after drain())
// behaves exactly like a tree constructed at the new fraction: every
// stage resolves the new epoch at its next interval, and the window's
// result attributes itself to that epoch.
TEST(ConcurrentTreePolicyTest, WindowSynchronousSwapMatchesReconstruction) {
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {4, 2};
  tree_config.sampling_fraction = 0.8;
  tree_config.rng_seed = 555;
  tree_config.control_plane = core::make_control_plane(tree_config);

  ConcurrentTreeConfig runtime_config;
  runtime_config.tree = tree_config;
  ConcurrentEdgeTree tree(runtime_config);

  const auto workload = make_workload(8, tree.leaf_count(), 13);
  for (const auto& tick : workload) tree.push_interval(tick);
  tree.drain();
  const auto first = tree.close_window();
  EXPECT_EQ(first.policy_epoch, 0u);

  // Quiescent swap: epoch 1 at fraction 0.2.
  tree_config.control_plane->publish_fraction(0.2);
  for (const auto& tick : workload) tree.push_interval(tick);
  tree.drain();
  const auto second = tree.close_window();
  EXPECT_EQ(second.policy_epoch_min, 1u);
  EXPECT_EQ(second.policy_epoch, 1u);
  // A quarter of the fraction: strictly fewer samples survive.
  EXPECT_LT(second.sampled_items, first.sampled_items);
  tree.stop();
}

// Publishing MID-STREAM while workers are sampling: the swap is benign by
// construction (weights self-describe, Eq. 8 is policy-independent), so
// the estimated original counts stay exact no matter which interval each
// node switched on. Runs under TSan in CI — this is the concurrent
// policy-swap path.
TEST(ConcurrentTreePolicyTest, MidStreamSwapPreservesWeightInvariant) {
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {4, 2};
  tree_config.sampling_fraction = 0.6;
  tree_config.rng_seed = 4242;
  tree_config.control_plane = core::make_control_plane(tree_config);

  ConcurrentTreeConfig runtime_config;
  runtime_config.tree = tree_config;
  runtime_config.channel_capacity = 2;  // layers pipeline across epochs
  ConcurrentEdgeTree tree(runtime_config);

  std::vector<std::uint64_t> truth = {0, 400, 800, 1200};
  std::vector<std::vector<Item>> interval(tree.leaf_count());
  Rng rng(99);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    for (std::uint64_t i = 0; i < truth[s]; ++i) {
      interval[rng.next_below(tree.leaf_count())].push_back(
          Item{SubStreamId{s}, 1.0, 0});
    }
  }

  // Publish a new epoch in the middle of the push storm: some intervals
  // are sampled under epoch 0 at some layers and epoch k at others.
  for (int rep = 0; rep < 12; ++rep) {
    if (rep == 4) tree.publish_fraction(0.3);
    if (rep == 8) tree.publish_fraction(0.9);
    tree.push_interval(interval);
  }
  tree.drain();
  tree.stop();

  const auto& theta = tree.theta();
  for (std::uint64_t s = 1; s <= 3; ++s) {
    ASSERT_GT(theta.sampled_count(SubStreamId{s}), 0u);
    const double expected = 12.0 * static_cast<double>(truth[s]);
    EXPECT_NEAR(theta.estimated_original_count(SubStreamId{s}), expected,
                expected * 1e-9)
        << "stream " << s;
  }
  EXPECT_EQ(tree.policy_epoch(), 2u);
  // The window straddled at least the final epoch; attribution recorded
  // a span whose max is the newest epoch any node resolved.
  EXPECT_LE(theta.min_policy_epoch(), theta.max_policy_epoch());
  EXPECT_GE(theta.max_policy_epoch(), 1u);
}

// Same-seed runs of the concurrent runtime are identical to each other
// (reproducibility survives thread scheduling).
TEST(ConcurrentTreeTest, SameSeedRunsAreReproducible) {
  auto run = [] {
    EdgeTreeConfig tree_config;
    tree_config.layer_widths = {2};
    tree_config.sampling_fraction = 0.3;
    tree_config.rng_seed = 555;
    ConcurrentTreeConfig config;
    config.tree = tree_config;
    ConcurrentEdgeTree tree(config);
    const auto workload = make_workload(10, tree.leaf_count(), 1);
    for (const auto& tick : workload) tree.push_interval(tick);
    auto result = tree.close_window();
    tree.stop();
    return result;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.sum.point, b.sum.point);
  EXPECT_EQ(a.sum.margin, b.sum.margin);
  EXPECT_EQ(a.sampled_items, b.sampled_items);
}

// Overload with kDropNewest: intervals get shed (and counted) instead of
// blocking the producer, and the tree still terminates cleanly with a
// consistent Θ over whatever survived.
TEST(ConcurrentTreeTest, DropPolicyShedsAndStaysConsistent) {
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {2};
  tree_config.sampling_fraction = 1.0;  // lossless stages: drops are the
                                        // only reason counts shrink
  tree_config.engine = EngineKind::kNative;
  ConcurrentTreeConfig config;
  config.tree = tree_config;
  config.channel_capacity = 1;
  config.backpressure = BackpressurePolicy::kDropNewest;
  ConcurrentEdgeTree tree(config);

  std::vector<std::vector<Item>> interval(tree.leaf_count());
  for (std::size_t leaf = 0; leaf < interval.size(); ++leaf) {
    for (int i = 0; i < 200; ++i) {
      interval[leaf].push_back(Item{SubStreamId{leaf + 1}, 1.0, 0});
    }
  }
  for (int k = 0; k < 200; ++k) tree.push_interval(interval);
  tree.stop();

  const auto metrics = tree.metrics();
  EXPECT_EQ(metrics.intervals_pushed, 200u);
  EXPECT_GT(metrics.messages_dropped, 0u);
  EXPECT_LE(metrics.items_at_root, metrics.items_ingested);
  // Whatever reached the root is internally consistent: native stages
  // never reweight, so the estimate equals the arrived count exactly.
  const auto& theta = tree.theta();
  double estimated = 0.0;
  for (const auto id : theta.sub_streams()) {
    estimated += theta.estimated_original_count(id);
  }
  EXPECT_DOUBLE_EQ(estimated, static_cast<double>(metrics.items_at_root));
}

TEST(ConcurrentTreeTest, CloseWindowDrainsAndClears) {
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {2};
  tree_config.engine = EngineKind::kNative;
  ConcurrentTreeConfig config;
  config.tree = tree_config;
  ConcurrentEdgeTree tree(config);

  std::vector<std::vector<Item>> interval(tree.leaf_count());
  interval[0].push_back(Item{SubStreamId{1}, 2.0, 0});
  interval[1].push_back(Item{SubStreamId{1}, 3.0, 0});
  tree.push_interval(interval);

  const auto result = tree.close_window();
  EXPECT_DOUBLE_EQ(result.sum.point, 5.0);
  EXPECT_EQ(result.sampled_items, 2u);
  EXPECT_TRUE(tree.theta().empty());
  tree.stop();
}

TEST(ConcurrentTreeTest, PushAfterStopThrows) {
  ConcurrentTreeConfig config;
  config.tree.layer_widths = {2};
  ConcurrentEdgeTree tree(config);
  tree.stop();
  std::vector<std::vector<Item>> interval(tree.leaf_count());
  EXPECT_THROW(tree.push_interval(interval), std::logic_error);
}

TEST(ConcurrentTreeTest, RejectsBadTopology) {
  ConcurrentTreeConfig config;
  config.tree.layer_widths = {};
  EXPECT_THROW(ConcurrentEdgeTree tree(config), std::invalid_argument);
  config.tree.layer_widths = {2, 4};
  EXPECT_THROW(ConcurrentEdgeTree tree(config), std::invalid_argument);
}

}  // namespace
}  // namespace approxiot::runtime
