// Checkpoint/restore: the bit-identity contract. A tree restored from a
// snapshot and fed the remaining input must produce the same Θ, the same
// query answers, and the same future RNG draws as the uninterrupted run —
// across all four engines, with and without a live control plane.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/control_plane.hpp"
#include "core/pipeline.hpp"
#include "core/theta_store.hpp"
#include "core/weight_map.hpp"

namespace approxiot::core {
namespace {

// Deterministic workload: `interval` seeds the generator, so any two runs
// asking for the same interval get the same items.
std::vector<std::vector<Item>> interval_items(std::size_t leaves,
                                              std::uint64_t interval,
                                              std::uint64_t seed = 7) {
  Rng rng(seed * 1000003ULL + interval);
  std::vector<std::vector<Item>> out(leaves);
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    const std::size_t n = 40 + rng.next_below(40);
    for (std::size_t i = 0; i < n; ++i) {
      Item item;
      item.source = SubStreamId{1 + rng.next_below(3)};
      item.value = 1.0 + rng.next_double() * 9.0;
      item.created_at_us = static_cast<std::int64_t>(interval) * 1'000'000;
      out[leaf].push_back(item);
    }
  }
  return out;
}

void expect_theta_identical(const ThetaStore& a, const ThetaStore& b) {
  const auto subs_a = a.sub_streams();
  const auto subs_b = b.sub_streams();
  ASSERT_EQ(subs_a.size(), subs_b.size());
  for (std::size_t i = 0; i < subs_a.size(); ++i) {
    ASSERT_EQ(subs_a[i], subs_b[i]);
    const auto& pa = a.pairs(subs_a[i]);
    const auto& pb = b.pairs(subs_b[i]);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t p = 0; p < pa.size(); ++p) {
      EXPECT_EQ(pa[p].weight, pb[p].weight);  // bitwise, not approximate
      ASSERT_EQ(pa[p].items.size(), pb[p].items.size());
      for (std::size_t k = 0; k < pa[p].items.size(); ++k) {
        EXPECT_EQ(pa[p].items[k], pb[p].items[k]);
      }
    }
  }
  EXPECT_EQ(a.min_policy_epoch(), b.min_policy_epoch());
  EXPECT_EQ(a.max_policy_epoch(), b.max_policy_epoch());
}

void expect_results_identical(const ApproxResult& a, const ApproxResult& b) {
  EXPECT_EQ(a.sum.point, b.sum.point);
  EXPECT_EQ(a.sum.margin, b.sum.margin);
  EXPECT_EQ(a.mean.point, b.mean.point);
  EXPECT_EQ(a.estimated_count, b.estimated_count);
  EXPECT_EQ(a.sampled_items, b.sampled_items);
  EXPECT_EQ(a.lost_weight, b.lost_weight);
  EXPECT_EQ(a.lost_items, b.lost_items);
  EXPECT_EQ(a.degraded, b.degraded);
}

TEST(CheckpointTest, RngRoundTripReproducesFutureDraws) {
  Rng original(12345);
  for (int i = 0; i < 100; ++i) (void)original.next();
  // Leave a gaussian pair half-consumed so the cache is live — the state
  // a naive four-word snapshot would lose.
  (void)original.next_gaussian();

  const Rng::State state = original.save_state();
  Rng restored(999);  // different seed: everything must come from State
  restored.restore_state(state);

  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(original.next(), restored.next());
    EXPECT_EQ(original.next_gaussian(), restored.next_gaussian());
    EXPECT_EQ(original.next_double(), restored.next_double());
  }
}

TEST(CheckpointTest, WriterReaderPrimitivesRoundTrip) {
  CheckpointWriter writer(CheckpointKind::kStage);
  writer.put_u64(0);
  writer.put_u64(0xdeadbeefcafeULL);
  writer.put_i64(-42);
  writer.put_double(3.14159);
  writer.put_bool(true);
  writer.put_bool(false);
  writer.put_string("theta");
  WeightMap weights;
  weights.set(SubStreamId{3}, 125.5);
  weights.set(SubStreamId{1}, 0.25);
  writer.put_weight_map(weights);
  ThetaStore theta;
  WeightedSample pair;
  pair.weight = 16.0;
  pair.items = {Item{SubStreamId{2}, 7.5, 123}};
  theta.add_pair(SubStreamId{2}, std::move(pair), 5);
  writer.put_theta(theta);
  const Checkpoint snapshot = writer.finish();
  EXPECT_GT(snapshot.size_bytes(), 0u);

  CheckpointReader reader(snapshot, CheckpointKind::kStage);
  EXPECT_EQ(reader.get_u64(), 0u);
  EXPECT_EQ(reader.get_u64(), 0xdeadbeefcafeULL);
  EXPECT_EQ(reader.get_i64(), -42);
  EXPECT_EQ(reader.get_double(), 3.14159);
  EXPECT_TRUE(reader.get_bool());
  EXPECT_FALSE(reader.get_bool());
  EXPECT_EQ(reader.get_string(), "theta");
  WeightMap weights_back;
  reader.get_weight_map(weights_back);
  EXPECT_EQ(weights_back.get(SubStreamId{3}), 125.5);
  EXPECT_EQ(weights_back.get(SubStreamId{1}), 0.25);
  ThetaStore theta_back;
  reader.get_theta(theta_back);
  expect_theta_identical(theta, theta_back);
  reader.expect_exhausted();
}

TEST(CheckpointTest, KindMismatchAndTruncationThrow) {
  CheckpointWriter writer(CheckpointKind::kTree);
  writer.put_u64(1);
  const Checkpoint snapshot = writer.finish();

  EXPECT_THROW(CheckpointReader(snapshot, CheckpointKind::kStage),
               CheckpointError);
  EXPECT_THROW(CheckpointReader(Checkpoint{}, CheckpointKind::kTree),
               CheckpointError);

  CheckpointReader reader(snapshot, CheckpointKind::kTree);
  EXPECT_EQ(reader.get_u64(), 1u);
  EXPECT_THROW((void)reader.get_u64(), CheckpointError);  // truncated

  CheckpointReader unread(snapshot, CheckpointKind::kTree);
  EXPECT_THROW(unread.expect_exhausted(), CheckpointError);  // trailing
}

TEST(CheckpointTest, StageRoundTripContinuesBitIdentically) {
  StageConfig config;
  config.engine = EngineKind::kApproxIoT;
  config.fraction = 0.4;
  config.rng_seed = 99;
  auto original = make_pipeline_stage(config);
  auto restored = make_pipeline_stage(config);

  std::vector<ItemBundle> psi(1);
  std::vector<SampledBundle> warmup;
  for (std::uint64_t interval = 0; interval < 5; ++interval) {
    psi[0].items = interval_items(1, interval)[0];
    original->process_interval(psi, warmup);
  }
  restore_stage(*restored, checkpoint_stage(*original));

  for (std::uint64_t interval = 5; interval < 10; ++interval) {
    psi[0].items = interval_items(1, interval)[0];
    std::vector<SampledBundle> out_a;
    original->process_interval(psi, out_a);
    std::vector<SampledBundle> out_b;
    restored->process_interval(psi, out_b);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i) {
      ASSERT_EQ(out_a[i].sample.items().size(), out_b[i].sample.items().size());
      for (std::size_t k = 0; k < out_a[i].sample.items().size(); ++k) {
        EXPECT_EQ(out_a[i].sample.items()[k], out_b[i].sample.items()[k]);
      }
      EXPECT_EQ(out_a[i].policy_epoch, out_b[i].policy_epoch);
    }
  }
}

TEST(CheckpointTest, StageEngineMismatchThrows) {
  StageConfig whs;
  whs.engine = EngineKind::kApproxIoT;
  StageConfig srs;
  srs.engine = EngineKind::kSrs;
  auto whs_stage = make_pipeline_stage(whs);
  auto srs_stage = make_pipeline_stage(srs);
  const Checkpoint snapshot = checkpoint_stage(*whs_stage);
  EXPECT_THROW(restore_stage(*srs_stage, snapshot), CheckpointError);
}

// A WHS stage (fraction 0.4, seed 99) after five intervals of
// interval_items(1, k)[0]: stage tag, budget, cost-function EWMA, volume
// history, policy epoch, remembered weights, then the sampling lane's
// tag (1, the sequential lane) and its RNG state.
constexpr std::uint8_t kSequentialStageSnapshot[] = {
    0xc4, 0x01, 0x01, 0x02, 0x01, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xd9,
    0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xc0, 0x4f, 0x40, 0x3f, 0x00, 0x00, 0x01, 0x28, 0xc0,
    0x9d, 0x65, 0xb2, 0x1e, 0xb4, 0xda, 0x2d, 0x6f, 0x9e, 0xe7, 0x49, 0xf0,
    0xa4, 0x60, 0x8a, 0x0d, 0xa2, 0x1f, 0x05, 0xb1, 0xab, 0x0a, 0x20, 0x2d,
    0x9e, 0x94, 0xfe, 0x0a, 0xe1, 0xc9, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00};

// The same stage as written by the former two-worker sharded lane: lane
// tag 2, the worker count, the RNG state and a call counter.
constexpr std::uint8_t kShardedStageSnapshot[] = {
    0xc4, 0x01, 0x01, 0x02, 0x01, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xd9,
    0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xc0, 0x4f, 0x40, 0x3f, 0x00, 0x00, 0x02, 0x02, 0x28,
    0xc0, 0x9d, 0x65, 0xb2, 0x1e, 0xb4, 0xda, 0x2d, 0x6f, 0x9e, 0xe7, 0x49,
    0xf0, 0xa4, 0x60, 0x8a, 0x0d, 0xa2, 0x1f, 0x05, 0xb1, 0xab, 0x0a, 0x20,
    0x2d, 0x9e, 0x94, 0xfe, 0x0a, 0xe1, 0xc9, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x05};

StageConfig pinned_whs_stage_config() {
  StageConfig config;
  config.engine = EngineKind::kApproxIoT;
  config.fraction = 0.4;
  config.rng_seed = 99;
  return config;
}

template <std::size_t N>
Checkpoint checkpoint_of(const std::uint8_t (&bytes)[N]) {
  return Checkpoint{std::vector<std::uint8_t>(bytes, bytes + N)};
}

// The stage format is pinned byte for byte: a stage writes exactly the
// recorded snapshot, and the recorded snapshot restores into a fresh
// stage that continues bit-identically to the uninterrupted one.
TEST(CheckpointTest, SequentialStageSnapshotIsPinnedAndRestores) {
  auto original = make_pipeline_stage(pinned_whs_stage_config());
  std::vector<ItemBundle> psi(1);
  std::vector<SampledBundle> out_a;
  for (std::uint64_t interval = 0; interval < 5; ++interval) {
    psi[0].items = interval_items(1, interval)[0];
    original->process_interval(psi, out_a);
  }
  const Checkpoint pinned = checkpoint_of(kSequentialStageSnapshot);
  EXPECT_EQ(checkpoint_stage(*original).bytes, pinned.bytes);

  auto restored = make_pipeline_stage(pinned_whs_stage_config());
  restore_stage(*restored, pinned);
  EXPECT_EQ(checkpoint_stage(*restored).bytes, pinned.bytes);

  std::vector<SampledBundle> out_b;
  for (std::uint64_t interval = 5; interval < 10; ++interval) {
    psi[0].items = interval_items(1, interval)[0];
    original->process_interval(psi, out_a);
    restored->process_interval(psi, out_b);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i) {
      EXPECT_TRUE(out_a[i].w_out == out_b[i].w_out);
      EXPECT_EQ(out_a[i].sample.items(), out_b[i].sample.items());
    }
  }
}

// Only the sequential lane exists, so a snapshot naming another lane
// fails closed instead of desynchronising the RNG stream.
TEST(CheckpointTest, ShardedLaneSnapshotIsRefused) {
  auto stage = make_pipeline_stage(pinned_whs_stage_config());
  try {
    restore_stage(*stage, checkpoint_of(kShardedStageSnapshot));
    FAIL() << "a sharded-lane snapshot was restored";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("lane type mismatch"),
              std::string::npos)
        << error.what();
  }
}

class CheckpointEngineTest : public ::testing::TestWithParam<EngineKind> {};

// The tentpole property: checkpoint at interval 6 of 12, restore into a
// FRESH tree, feed only the remaining 6 intervals, and the window result
// (and Θ, item by item) matches the uninterrupted run exactly — same RNG
// draws, same reservoir contents, same weights.
TEST_P(CheckpointEngineTest, RestoredTreeContinuesBitIdentically) {
  EdgeTreeConfig config;
  config.layer_widths = {4, 2};
  config.engine = GetParam();
  config.sampling_fraction = config.engine == EngineKind::kNative ? 1.0 : 0.3;
  config.rng_seed = 77;

  EdgeTree uninterrupted(config);
  EdgeTree phase_a(config);
  for (std::uint64_t interval = 0; interval < 6; ++interval) {
    const auto items = interval_items(4, interval);
    uninterrupted.tick(items);
    phase_a.tick(items);
  }

  const Checkpoint snapshot = phase_a.checkpoint();
  EXPECT_GT(snapshot.size_bytes(), 0u);

  EdgeTree phase_b(config);  // fresh tree, never saw phase A
  phase_b.restore(snapshot);

  for (std::uint64_t interval = 6; interval < 12; ++interval) {
    const auto items = interval_items(4, interval);
    uninterrupted.tick(items);
    phase_b.tick(items);
  }

  expect_theta_identical(uninterrupted.theta(), phase_b.theta());
  EXPECT_EQ(uninterrupted.metrics().items_ingested,
            phase_b.metrics().items_ingested);
  EXPECT_EQ(uninterrupted.metrics().items_at_root,
            phase_b.metrics().items_at_root);
  expect_results_identical(uninterrupted.close_window(),
                           phase_b.close_window());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, CheckpointEngineTest,
                         ::testing::Values(EngineKind::kApproxIoT,
                                           EngineKind::kSrs,
                                           EngineKind::kNative,
                                           EngineKind::kSnapshot),
                         [](const auto& info) {
                           return std::string(engine_kind_name(info.param));
                         });

TEST(CheckpointTest, FingerprintMismatchThrows) {
  EdgeTreeConfig config;
  config.layer_widths = {4, 2};
  config.sampling_fraction = 0.5;
  EdgeTree tree(config);
  tree.tick(interval_items(4, 0));
  const Checkpoint snapshot = tree.checkpoint();

  {
    EdgeTreeConfig other = config;
    other.layer_widths = {4};
    EdgeTree victim(other);
    EXPECT_THROW(victim.restore(snapshot), CheckpointError);
  }
  {
    EdgeTreeConfig other = config;
    other.engine = EngineKind::kSrs;
    EdgeTree victim(other);
    EXPECT_THROW(victim.restore(snapshot), CheckpointError);
  }
  {
    EdgeTreeConfig other = config;
    other.rng_seed = config.rng_seed + 1;
    EdgeTree victim(other);
    EXPECT_THROW(victim.restore(snapshot), CheckpointError);
  }
}

// §IV-B interplay: checkpoint a tree that has already moved to policy
// epoch 2 mid-window. The restored tree must resolve the SAME epoch (not
// re-publish as a new one), so its output stamps — and the Θ epoch span —
// match the uninterrupted run.
TEST(CheckpointTest, ControlPlaneEpochSurvivesRestoreVerbatim) {
  EdgeTreeConfig config;
  config.layer_widths = {4, 2};
  config.sampling_fraction = 0.5;

  // Each tree gets its OWN control plane (separate processes would): a
  // shared plane would see every publish twice.
  EdgeTreeConfig config_a = config;
  config_a.control_plane = make_control_plane(config);
  EdgeTreeConfig config_b = config;
  config_b.control_plane = make_control_plane(config);
  EdgeTreeConfig config_c = config;
  config_c.control_plane = make_control_plane(config);

  EdgeTree uninterrupted(config_a);
  EdgeTree phase_a(config_c);

  auto run_phase_one = [](EdgeTree& tree) {
    tree.tick(interval_items(4, 0));
    tree.set_sampling_fraction(0.4);  // publishes epoch 1
    tree.tick(interval_items(4, 1));
    tree.set_sampling_fraction(0.25);  // publishes epoch 2
    tree.tick(interval_items(4, 2));
  };
  run_phase_one(uninterrupted);
  run_phase_one(phase_a);
  ASSERT_EQ(phase_a.policy_epoch(), 2u);

  const Checkpoint snapshot = phase_a.checkpoint();
  EdgeTree phase_b(config_b);
  phase_b.restore(snapshot);
  EXPECT_EQ(phase_b.policy_epoch(), 2u);
  EXPECT_EQ(phase_b.control_plane()->snapshot()->budget.sampling_fraction,
            0.25);

  for (std::uint64_t interval = 3; interval < 6; ++interval) {
    uninterrupted.tick(interval_items(4, interval));
    phase_b.tick(interval_items(4, interval));
  }
  expect_theta_identical(uninterrupted.theta(), phase_b.theta());
  EXPECT_EQ(uninterrupted.theta().max_policy_epoch(),
            phase_b.theta().max_policy_epoch());
  expect_results_identical(uninterrupted.close_window(),
                           phase_b.close_window());
}

TEST(CheckpointTest, ControlPlanePresenceMismatchThrows) {
  EdgeTreeConfig with_plane;
  with_plane.layer_widths = {2};
  with_plane.sampling_fraction = 0.5;
  with_plane.control_plane = make_control_plane(with_plane);
  EdgeTree tree(with_plane);
  const Checkpoint snapshot = tree.checkpoint();

  EdgeTreeConfig without = with_plane;
  without.control_plane = nullptr;
  EdgeTree victim(without);
  EXPECT_THROW(victim.restore(snapshot), CheckpointError);
}

TEST(CheckpointTest, RestorePolicyRefusesBackwardsEpochs) {
  EdgeTreeConfig config;
  config.layer_widths = {2};
  config.sampling_fraction = 0.5;
  auto plane = make_control_plane(config);
  (void)plane->publish_fraction(0.4);  // epoch 1
  (void)plane->publish_fraction(0.3);  // epoch 2

  SamplingPolicy stale = *plane->snapshot();
  stale.epoch = 1;
  EXPECT_THROW((void)plane->restore_policy(stale), std::invalid_argument);

  // Equal epoch is an idempotent no-op (tree + source restores overlap).
  SamplingPolicy same = *plane->snapshot();
  EXPECT_EQ(plane->restore_policy(same), 2u);
  EXPECT_EQ(plane->epoch(), 2u);
}

// Subtree loss (Eq. 8): detaching a child mid-window swallows exactly the
// weight its delivered items carried, so estimated_count + lost_weight
// reconstructs the full pre-failure count, and the surviving sub-streams'
// estimates are untouched.
TEST(CheckpointTest, DetachedSubtreeLossIsExactlyQuantified) {
  EdgeTreeConfig config;
  config.layer_widths = {4};
  config.engine = EngineKind::kNative;  // exact: counts are deterministic
  EdgeTree tree(config);

  // Interval 0: all four leaves alive.
  std::vector<std::vector<Item>> items(4);
  for (std::size_t leaf = 0; leaf < 4; ++leaf) {
    for (int i = 0; i < 25; ++i) {
      items[leaf].push_back(Item{SubStreamId{leaf + 1}, 2.0, 0});
    }
  }
  tree.tick(items);

  // Leaf 2 dies; two more intervals flow. It comes back before the close:
  // a window that STARTS with every node alive is clean again.
  tree.detach_subtree(0, 2);
  tree.tick(items);
  tree.tick(items);
  tree.reattach_subtree(0, 2);

  const ApproxResult result = tree.close_window();
  EXPECT_TRUE(result.degraded);
  // Leaf 2 delivered 25 weight-1 items in each of 2 dead intervals.
  EXPECT_EQ(result.lost_items, 50u);
  EXPECT_DOUBLE_EQ(result.lost_weight, 50.0);
  // Conservation: 12 bundles of 25 pushed, 50 lost, the rest estimated
  // exactly (native engine: estimate == count).
  EXPECT_DOUBLE_EQ(result.estimated_count + result.lost_weight, 300.0);

  // The healed window is clean.
  tree.tick(items);
  const ApproxResult healed = tree.close_window();
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.lost_items, 0u);
  EXPECT_DOUBLE_EQ(healed.lost_weight, 0.0);
}

// Losing an INTERIOR node swallows re-weighted bundles: the lost weight
// must equal the original delivered count of the whole subtree (Eq. 8),
// not the (smaller) sampled item count.
TEST(CheckpointTest, InteriorLossReconstructsOriginalCountViaWeights) {
  EdgeTreeConfig config;
  config.layer_widths = {4, 2};
  config.sampling_fraction = 0.25;  // real sampling: weights > 1
  config.rng_seed = 11;
  EdgeTree tree(config);

  std::vector<std::vector<Item>> items(4);
  for (std::size_t leaf = 0; leaf < 4; ++leaf) {
    for (int i = 0; i < 50; ++i) {
      items[leaf].push_back(Item{SubStreamId{1 + (leaf % 2)}, 1.0, 0});
    }
  }
  tree.tick(items);  // healthy warm-up

  tree.detach_subtree(1, 0);  // mid node 0: leaves 0+1 feed it
  tree.tick(items);
  tree.tick(items);
  const ApproxResult result = tree.close_window();

  EXPECT_TRUE(result.degraded);
  // Two intervals × two leaves × 50 items flowed into the dead mid node;
  // their sampled survivors carried weights summing back to 200 exactly.
  EXPECT_DOUBLE_EQ(result.lost_weight, 200.0);
  EXPECT_GT(result.lost_items, 0u);
  EXPECT_LE(result.lost_items, 200u);
}

}  // namespace
}  // namespace approxiot::core
