// Chaos harness: nodes die and come back mid-stream, and the tree must
// keep every promise the paper makes for the data it actually delivered.
//
// The invariants hammered here:
//   - a dead subtree's swallowed weight is quantified EXACTLY (Eq. 8:
//     each lost interval's Σ|I|·W^in equals the original item count the
//     subtree had delivered), so estimated_count + lost_weight
//     reconstructs the full pre-failure stream count;
//   - surviving sub-streams stay exact — a sibling's death changes their
//     estimates by nothing;
//   - checkpoints interchange between the sequential EdgeTree and the
//     concurrent runtime, and a restored run is bit-identical to an
//     uninterrupted one, down to the wire bytes the root emits;
//   - the built-in chaos driver (random kill/revive every N intervals)
//     preserves all of the above on a fully serialised (1-worker) and a
//     4-worker scheduler, with and without capture/restore, for every
//     seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/wire.hpp"
#include "runtime/concurrent_tree.hpp"

namespace approxiot::runtime {
namespace {

using core::EdgeTree;
using core::EdgeTreeConfig;
using core::EngineKind;

/// One interval where every leaf contributes `per_leaf` items of its own
/// private sub-stream (leaf l -> sub-stream l+1): per-sub-stream counts
/// then map 1:1 to leaves, so loss is attributable exactly.
std::vector<std::vector<Item>> leaf_owned_interval(std::size_t leaves,
                                                   std::size_t per_leaf,
                                                   double value = 1.0) {
  std::vector<std::vector<Item>> items(leaves);
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    for (std::size_t i = 0; i < per_leaf; ++i) {
      items[leaf].push_back(Item{SubStreamId{leaf + 1}, value, 0});
    }
  }
  return items;
}

/// Mixed workload for the storm: every leaf carries every sub-stream.
/// Returns items[tick][leaf]; `total` (optional out) counts all items.
std::vector<std::vector<std::vector<Item>>> storm_workload(
    std::size_t ticks, std::size_t leaves, std::uint64_t seed,
    std::uint64_t* total = nullptr) {
  Rng rng(seed);
  std::vector<std::vector<std::vector<Item>>> workload(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    workload[t].resize(leaves);
    for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
      const std::size_t n = 30 + rng.next_below(30);
      if (total != nullptr) *total += n;
      for (std::size_t i = 0; i < n; ++i) {
        workload[t][leaf].push_back(Item{SubStreamId{1 + rng.next_below(4)},
                                         rng.next_double() * 10.0,
                                         static_cast<std::int64_t>(t)});
      }
    }
  }
  return workload;
}

void expect_theta_identical(const core::ThetaStore& a,
                            const core::ThetaStore& b) {
  const auto subs_a = a.sub_streams();
  const auto subs_b = b.sub_streams();
  ASSERT_EQ(subs_a.size(), subs_b.size());
  for (std::size_t s = 0; s < subs_a.size(); ++s) {
    EXPECT_EQ(subs_a[s], subs_b[s]);
    const auto& pa = a.pairs(subs_a[s]);
    const auto& pb = b.pairs(subs_a[s]);
    ASSERT_EQ(pa.size(), pb.size()) << "stream " << subs_a[s];
    for (std::size_t p = 0; p < pa.size(); ++p) {
      EXPECT_EQ(pa[p].weight, pb[p].weight);
      ASSERT_EQ(pa[p].items.size(), pb[p].items.size());
      for (std::size_t i = 0; i < pa[p].items.size(); ++i) {
        EXPECT_EQ(pa[p].items[i], pb[p].items[i]);
      }
    }
  }
}

TEST(ChaosTest, RootCannotBeKilledAndKillReviveAreIdempotent) {
  ConcurrentTreeConfig config;
  config.tree.layer_widths = {2};
  config.tree.engine = EngineKind::kNative;
  ConcurrentEdgeTree tree(config);

  EXPECT_THROW(tree.kill_node(1, 0), std::invalid_argument);  // the root
  EXPECT_THROW(tree.kill_node(0, 7), std::invalid_argument);  // no such node

  tree.kill_node(0, 1);
  tree.kill_node(0, 1);  // idempotent: one kill counted
  EXPECT_TRUE(tree.node_dead(0, 1));
  EXPECT_FALSE(tree.node_dead(0, 0));
  tree.revive_node(0, 1);
  tree.revive_node(0, 1);
  EXPECT_FALSE(tree.node_dead(0, 1));

  const auto faults = tree.fault_metrics();
  EXPECT_EQ(faults.kills, 1u);
  EXPECT_EQ(faults.revives, 1u);
  EXPECT_EQ(faults.lost_items, 0u);  // nothing flowed while dead
  tree.stop();
}

// Deterministic leaf loss under the exact (native) engine: the dead leaf
// swallows exactly the items sent to it, the result quantifies them, and
// the surviving leaves' counts are untouched. drain() before the kill
// parks every worker, so the kill lands at a known interval boundary.
TEST(ChaosTest, DeadLeafSwallowsExactlyItsDeliveredWeight) {
  ConcurrentTreeConfig config;
  config.tree.layer_widths = {4};
  config.tree.engine = EngineKind::kNative;
  ConcurrentEdgeTree tree(config);

  const auto interval = leaf_owned_interval(4, 25, 2.0);
  tree.push_interval(interval);
  tree.drain();

  tree.kill_node(0, 2, /*capture=*/false);
  tree.push_interval(interval);
  tree.push_interval(interval);
  tree.drain();

  // Survivors stay exact; the victim's sub-stream kept only interval 0.
  for (std::size_t leaf = 0; leaf < 4; ++leaf) {
    const double expected = leaf == 2 ? 25.0 : 75.0;
    EXPECT_DOUBLE_EQ(tree.theta().estimated_original_count(
                         SubStreamId{leaf + 1}),
                     expected);
  }

  const auto result = tree.close_window();
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.lost_items, 50u);
  EXPECT_DOUBLE_EQ(result.lost_weight, 50.0);
  EXPECT_DOUBLE_EQ(result.estimated_count + result.lost_weight, 300.0);

  const auto faults = tree.fault_metrics();
  EXPECT_EQ(faults.lost_items, 50u);
  EXPECT_DOUBLE_EQ(faults.lost_weight, 50.0);
  tree.stop();
}

// The same exactness under real sampling: WHS weights make every
// sub-stream's estimated original count EXACT (Eq. 8), dead or not — the
// victim's shortfall is exactly the quantified lost weight, and the
// survivors' estimates equal their true delivered counts to the last bit
// of floating-point error.
TEST(ChaosTest, WhsSurvivorsStayExactThroughKillAndColdRevive) {
  ConcurrentTreeConfig config;
  config.tree.layer_widths = {4, 2};
  config.tree.sampling_fraction = 0.3;
  config.tree.rng_seed = 9;
  ConcurrentEdgeTree tree(config);

  const auto interval = leaf_owned_interval(4, 40);
  auto push_n = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) tree.push_interval(interval);
    tree.drain();
  };

  push_n(3);                               // all alive
  tree.kill_node(0, 1, /*capture=*/false);
  push_n(3);                               // leaf 1's data swallowed
  tree.revive_node(0, 1, /*restore=*/false);  // cold restart
  push_n(3);                               // alive again

  for (std::size_t leaf = 0; leaf < 4; ++leaf) {
    const double delivered = leaf == 1 ? 6.0 * 40.0 : 9.0 * 40.0;
    EXPECT_NEAR(tree.theta().estimated_original_count(SubStreamId{leaf + 1}),
                delivered, 1e-9 * delivered);
  }

  const auto result = tree.close_window();
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.lost_items, 120u);  // 3 intervals × 40 weight-1 items
  EXPECT_DOUBLE_EQ(result.lost_weight, 120.0);
  EXPECT_NEAR(result.estimated_count + result.lost_weight, 4.0 * 9.0 * 40.0,
              1e-6);
  tree.stop();
}

// Capture-at-kill / restore-at-revive: the victim's sampling state
// (reservoir RNG streak, weight carry, counters) survives its death, and
// the post-revival stream stays exact. The capture is serviced lazily by
// the victim's own worker at its first dead interval — no other thread
// ever touches the stage.
TEST(ChaosTest, CaptureRestoreReviveKeepsEverySubStreamExact) {
  ConcurrentTreeConfig config;
  config.tree.layer_widths = {4, 2};
  config.tree.sampling_fraction = 0.3;
  config.tree.rng_seed = 10;
  ConcurrentEdgeTree tree(config);

  const auto interval = leaf_owned_interval(4, 40);
  auto push_n = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) tree.push_interval(interval);
    tree.drain();
  };

  push_n(3);
  tree.kill_node(0, 1, /*capture=*/true);
  push_n(2);  // swallowed — and the first one services the self-capture
  tree.revive_node(0, 1, /*restore=*/true);
  push_n(4);

  for (std::size_t leaf = 0; leaf < 4; ++leaf) {
    const double delivered = leaf == 1 ? 7.0 * 40.0 : 9.0 * 40.0;
    EXPECT_NEAR(tree.theta().estimated_original_count(SubStreamId{leaf + 1}),
                delivered, 1e-9 * delivered);
  }
  const auto result = tree.close_window();
  EXPECT_EQ(result.lost_items, 80u);
  EXPECT_DOUBLE_EQ(result.lost_weight, 80.0);
  EXPECT_TRUE(result.degraded);

  // The window AFTER a fully healed tree is clean again.
  push_n(1);
  const auto healed = tree.close_window();
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.lost_items, 0u);
  tree.stop();
}

// Snapshots interchange: a checkpoint taken by the sequential EdgeTree
// restores into the concurrent runtime (and vice versa), and the restored
// half-run continues bit-identically to the uninterrupted sequential run.
TEST(ChaosTest, SequentialAndConcurrentCheckpointsInterchange) {
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {4, 2};
  tree_config.sampling_fraction = 0.4;
  tree_config.rng_seed = 20180701;

  std::uint64_t ignored = 0;
  const auto workload = storm_workload(12, 4, 55, &ignored);

  EdgeTree uninterrupted(tree_config);
  for (const auto& tick : workload) uninterrupted.tick(tick);

  // Sequential first half -> concurrent second half.
  {
    EdgeTree first_half(tree_config);
    for (std::size_t t = 0; t < 6; ++t) first_half.tick(workload[t]);

    ConcurrentTreeConfig runtime_config;
    runtime_config.tree = tree_config;
    ConcurrentEdgeTree second_half(runtime_config);
    second_half.restore(first_half.checkpoint());  // quiescent: no pushes yet
    for (std::size_t t = 6; t < 12; ++t) second_half.push_interval(workload[t]);
    second_half.drain();

    expect_theta_identical(uninterrupted.theta(), second_half.theta());
    second_half.stop();
  }

  // Concurrent first half -> sequential second half.
  {
    ConcurrentTreeConfig runtime_config;
    runtime_config.tree = tree_config;
    ConcurrentEdgeTree first_half(runtime_config);
    for (std::size_t t = 0; t < 6; ++t) first_half.push_interval(workload[t]);
    first_half.drain();
    const core::Checkpoint snapshot = first_half.checkpoint();
    first_half.stop();

    EdgeTree second_half(tree_config);
    second_half.restore(snapshot);
    for (std::size_t t = 6; t < 12; ++t) second_half.tick(workload[t]);

    expect_theta_identical(uninterrupted.theta(), second_half.theta());
    const auto expected = uninterrupted.close_window();
    const auto actual = second_half.close_window();
    EXPECT_EQ(expected.sum.point, actual.sum.point);
    EXPECT_EQ(expected.sum.margin, actual.sum.margin);
    EXPECT_EQ(expected.estimated_count, actual.estimated_count);
    EXPECT_EQ(expected.sampled_items, actual.sampled_items);
  }
}

// The strongest restore statement: the bytes the root would put on the
// wire (encode_bundle of every Θ fold, §III-B metadata included) are
// IDENTICAL between an uninterrupted run and a checkpoint/restore pair —
// a downstream consumer cannot tell the failover happened.
TEST(ChaosTest, RestoredRunEmitsIdenticalWireBytes) {
  EdgeTreeConfig tree_config;
  tree_config.layer_widths = {4, 2};
  tree_config.sampling_fraction = 0.4;
  tree_config.rng_seed = 31;

  std::uint64_t ignored = 0;
  const auto workload = storm_workload(10, 4, 77, &ignored);

  auto run_taped = [&](ConcurrentEdgeTree& tree, std::size_t from,
                       std::size_t to) {
    for (std::size_t t = from; t < to; ++t) tree.push_interval(workload[t]);
    tree.drain();
  };
  auto make_config = [&](std::vector<std::uint8_t>& tape) {
    ConcurrentTreeConfig config;
    config.tree = tree_config;
    config.root_tap = [&tape](const core::SampledBundle& bundle) {
      const auto bytes = core::encode_bundle(bundle);
      tape.insert(tape.end(), bytes.begin(), bytes.end());
    };
    return config;
  };

  std::vector<std::uint8_t> uninterrupted_tape;
  {
    ConcurrentEdgeTree tree(make_config(uninterrupted_tape));
    run_taped(tree, 0, 10);
    tree.stop();
  }

  std::vector<std::uint8_t> restored_tape;
  core::Checkpoint snapshot;
  {
    ConcurrentEdgeTree tree(make_config(restored_tape));
    run_taped(tree, 0, 5);
    snapshot = tree.checkpoint();
    tree.stop();
  }
  {
    ConcurrentEdgeTree tree(make_config(restored_tape));
    tree.restore(snapshot);
    run_taped(tree, 5, 10);
    tree.stop();
  }

  ASSERT_FALSE(uninterrupted_tape.empty());
  EXPECT_EQ(uninterrupted_tape, restored_tape);
}

// The chaos storm proper: the built-in driver kills a random node every 5
// completed root intervals and revives it 2 intervals later, on 1 and 4
// scheduler workers, with and without capture/restore, for 5 seeds —
// 20 runs, with a storm of spurious wakes on every push. The main
// assertion is conservation: delivered estimates plus quantified loss
// reconstruct the full stream, to relative 1e-6, every single run.
//
// Which intervals a victim swallows depends on pipelining timing, except
// for one per kill, which the push schedule pins down. The driver kills
// inside the root's completion of interval 5m-1 (completed count 5m) and
// revives inside its completion of interval 5m+1 (count 5m+2). Before
// pushing interval 5m+1 the test drains, i.e. waits for the root to
// complete interval 5m. The root task signals that completion only after
// the previous completion's kill has returned, so the wait ends after
// the kill. Interval 5m+1 therefore enters the tree after the victim is
// dead, and the revive cannot happen until the root has completed
// interval 5m+1, which needs the victim to have passed it on first. So
// the victim swallows interval 5m+1, and since every leaf gets 30+ items
// per tick, what it swallows is never empty: lost_items > 0 holds by
// construction. The other intervals still pipeline freely.
struct StormCase {
  std::size_t event_workers;
  bool checkpoint_restore;
  std::uint64_t seed;
};

class ChaosStormTest : public ::testing::TestWithParam<StormCase> {};

TEST_P(ChaosStormTest, ConservationHoldsThroughRandomKillsAndRevives) {
  const StormCase param = GetParam();

  ConcurrentTreeConfig config;
  config.tree.layer_widths = {4, 2};
  config.tree.sampling_fraction = 0.35;
  config.tree.rng_seed = 20180700 + param.seed;
  config.channel_capacity = 4;
  config.backpressure = BackpressurePolicy::kBlock;  // lossless: loss below
                                                     // is all fault-induced
  config.event_workers = param.event_workers;
  config.chaos.enabled = true;
  config.chaos.kill_every_n_intervals = 5;
  config.chaos.dead_intervals = 2;
  config.chaos.checkpoint_restore = param.checkpoint_restore;
  config.chaos.seed = param.seed;

  std::uint64_t total_items = 0;
  const auto workload = storm_workload(48, 4, 100 + param.seed, &total_items);

  ConcurrentEdgeTree tree(config);
  for (std::size_t t = 0; t < workload.size(); ++t) {
    // Pace on root completions where a kill must land first (see above).
    if (t % config.chaos.kill_every_n_intervals == 1) tree.drain();
    tree.push_interval(workload[t]);
    tree.kick();  // spurious wakes
  }
  tree.drain();

  const auto result = tree.close_window();
  const auto faults = tree.fault_metrics();
  tree.stop();

  EXPECT_GE(faults.kills, 5u);  // 48 intervals / kill-every-5, minus tail
  EXPECT_GE(faults.revives, 1u);
  EXPECT_LE(faults.revives, faults.kills);
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.lost_items, 0u);
  EXPECT_EQ(faults.lost_items, result.lost_items);

  // Eq. 8 conservation through every kill, revival and (optional)
  // restore: nothing double-counted, nothing unaccounted.
  const double reconstructed = result.estimated_count + result.lost_weight;
  EXPECT_NEAR(reconstructed, static_cast<double>(total_items),
              1e-6 * static_cast<double>(total_items));
}

std::vector<StormCase> storm_matrix() {
  std::vector<StormCase> cases;
  for (const std::size_t workers : {1, 4}) {
    for (const bool restore : {true, false}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        cases.push_back(StormCase{workers, restore, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, ChaosStormTest,
                         ::testing::ValuesIn(storm_matrix()),
                         [](const auto& info) {
                           return "w" +
                                  std::to_string(info.param.event_workers) +
                                  (info.param.checkpoint_restore ? "_restore"
                                                                 : "_cold") +
                                  "_seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace approxiot::runtime
