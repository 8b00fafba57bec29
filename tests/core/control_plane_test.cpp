// ControlPlane / PolicyHandle semantics plus the epoch stamping contract:
// versioning is dense and monotonic, reads are wait-free snapshots,
// scopes project the end-to-end fraction exactly like the tree
// constructors do (the bit-identity precondition), and nodes stamp their
// outputs with the epoch they resolved. The concurrent section hammers
// publish against many readers and runs under TSan in CI.
#include "core/control_plane.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/node.hpp"
#include "core/pipeline.hpp"
#include "core/snapshot_node.hpp"
#include "core/srs_node.hpp"
#include "core/theta_store.hpp"

namespace approxiot::core {
namespace {

TEST(ControlPlaneTest, InitialPolicyIsEpochZero) {
  SamplingPolicy initial;
  initial.epoch = 99;  // must be ignored
  initial.budget.sampling_fraction = 0.4;
  ControlPlane plane(initial);
  EXPECT_EQ(plane.epoch(), 0u);
  EXPECT_DOUBLE_EQ(plane.snapshot()->budget.sampling_fraction, 0.4);
}

TEST(ControlPlaneTest, PublishAssignsDenseEpochs) {
  ControlPlane plane;
  SamplingPolicy next;
  next.epoch = 1000;  // callers cannot pick epochs
  EXPECT_EQ(plane.publish(next), 1u);
  EXPECT_EQ(plane.publish(next), 2u);
  EXPECT_EQ(plane.publish_fraction(0.25), 3u);
  EXPECT_EQ(plane.epoch(), 3u);
  EXPECT_DOUBLE_EQ(plane.snapshot()->budget.sampling_fraction, 0.25);
}

TEST(ControlPlaneTest, PublishFractionKeepsOtherKnobs) {
  SamplingPolicy initial;
  initial.budget.fixed_sample_size = 77;
  initial.whsamp.allocation_policy = "proportional";
  ControlPlane plane(initial);
  plane.publish_fraction(0.5);
  const auto snap = plane.snapshot();
  EXPECT_EQ(snap->budget.fixed_sample_size, 77u);
  EXPECT_EQ(snap->whsamp.allocation_policy, "proportional");
  EXPECT_DOUBLE_EQ(snap->budget.sampling_fraction, 0.5);
}

TEST(ControlPlaneTest, OldSnapshotsStayValidAfterPublish) {
  ControlPlane plane;
  const auto old_snap = plane.snapshot();
  plane.publish_fraction(0.1);
  // A reader mid-interval keeps a consistent view of the policy it
  // resolved, even though the plane has moved on.
  EXPECT_EQ(old_snap->epoch, 0u);
  EXPECT_DOUBLE_EQ(old_snap->budget.sampling_fraction, 1.0);
  EXPECT_EQ(plane.snapshot()->epoch, 1u);
}

TEST(PolicyHandleTest, UnboundHandleReturnsCallerBudgetAtEpochZero) {
  PolicyHandle handle;
  EXPECT_FALSE(handle.bound());
  ResourceBudget current;
  current.sampling_fraction = 0.37;
  const PolicyDecision d = handle.resolve(current);
  EXPECT_EQ(d.epoch, 0u);
  EXPECT_DOUBLE_EQ(d.budget.sampling_fraction, 0.37);
}

TEST(PolicyHandleTest, PerLayerScopeMatchesTreeConstruction) {
  SamplingPolicy initial;
  initial.budget.sampling_fraction = 0.4;
  auto plane = std::make_shared<ControlPlane>(initial);
  PolicyScope scope;
  scope.rule = PolicyScope::Rule::kPerLayer;
  scope.sampling_layers = 3;
  PolicyHandle handle(plane, scope);

  const PolicyDecision d = handle.resolve(ResourceBudget{});
  // Exactly the function edge_tree_stage_config uses — the double must be
  // bit-identical, not merely close.
  EXPECT_EQ(d.budget.sampling_fraction, per_layer_fraction(0.4, 3));
}

TEST(PolicyHandleTest, EndToEndAndHoldScopes) {
  SamplingPolicy initial;
  initial.budget.sampling_fraction = 0.4;
  auto plane = std::make_shared<ControlPlane>(initial);

  PolicyScope e2e;
  e2e.rule = PolicyScope::Rule::kEndToEnd;
  EXPECT_DOUBLE_EQ(
      PolicyHandle(plane, e2e).resolve(ResourceBudget{}).budget
          .sampling_fraction,
      0.4);

  PolicyScope hold;
  hold.rule = PolicyScope::Rule::kHold;
  ResourceBudget current;
  current.sampling_fraction = 0.9;
  const PolicyDecision d = PolicyHandle(plane, hold).resolve(current);
  EXPECT_DOUBLE_EQ(d.budget.sampling_fraction, 0.9);  // untouched
  EXPECT_EQ(d.epoch, 0u);  // but the epoch still tracks the plane
  plane->publish_fraction(0.2);
  EXPECT_EQ(PolicyHandle(plane, hold).resolve(current).epoch, 1u);
}

// --- epoch stamping through the node layer ------------------------------

std::vector<ItemBundle> one_bundle(std::size_t n) {
  ItemBundle bundle;
  for (std::size_t i = 0; i < n; ++i) {
    bundle.items.push_back(Item{SubStreamId{1 + i % 3}, 1.0, 0});
  }
  std::vector<ItemBundle> psi;
  psi.push_back(std::move(bundle));
  return psi;
}

TEST(PolicyStampTest, SamplingNodeStampsResolvedEpoch) {
  SamplingPolicy initial;
  initial.budget.sampling_fraction = 0.5;
  auto plane = std::make_shared<ControlPlane>(initial);

  NodeConfig config;
  config.budget.sampling_fraction = 0.5;
  config.policy = PolicyHandle(
      plane, PolicyScope{PolicyScope::Rule::kEndToEnd, 1});
  SamplingNode node(config);

  std::vector<SampledBundle> out0;
  node.process_interval(one_bundle(100), out0);
  ASSERT_FALSE(out0.empty());
  EXPECT_EQ(node.policy_epoch(), 0u);
  EXPECT_EQ(out0.front().policy_epoch, 0u);

  plane->publish_fraction(0.25);
  std::vector<SampledBundle> out1;
  node.process_interval(one_bundle(100), out1);
  ASSERT_FALSE(out1.empty());
  EXPECT_EQ(node.policy_epoch(), 1u);
  EXPECT_EQ(out1.front().policy_epoch, 1u);
  // The published fraction actually took: budget halved, fewer items out.
  EXPECT_DOUBLE_EQ(node.budget().sampling_fraction, 0.25);
  EXPECT_LT(out1.front().item_count(), out0.front().item_count());
}

TEST(PolicyStampTest, EpochTravelsThroughToBundle) {
  SampledBundle sampled;
  sampled.policy_epoch = 7;
  sampled.w_out.set(SubStreamId{1}, 2.0);
  sampled.sample[SubStreamId{1}] = {Item{SubStreamId{1}, 5.0, 42}};
  EXPECT_EQ(sampled.to_bundle().policy_epoch, 7u);
  EXPECT_EQ(std::move(sampled).to_bundle().policy_epoch, 7u);
}

TEST(PolicyStampTest, SrsAndSnapshotNodesStampAndApply) {
  SamplingPolicy initial;
  initial.budget.sampling_fraction = 1.0;
  auto plane = std::make_shared<ControlPlane>(initial);
  const PolicyHandle handle(plane,
                            PolicyScope{PolicyScope::Rule::kEndToEnd, 1});

  SrsNodeConfig srs_config;
  srs_config.probability = 1.0;
  srs_config.policy = handle;
  SrsNode srs(srs_config);

  SnapshotNodeConfig snap_config;
  snap_config.period = 1;
  snap_config.policy = handle;
  SnapshotNode snap(snap_config);

  std::vector<SampledBundle> srs_out;
  std::vector<SampledBundle> snap_out;
  srs.process_interval(one_bundle(10), srs_out);
  snap.process_interval(one_bundle(10), snap_out);
  EXPECT_EQ(srs.policy_epoch(), 0u);
  EXPECT_EQ(snap.policy_epoch(), 0u);
  EXPECT_DOUBLE_EQ(srs.probability(), 1.0);
  EXPECT_EQ(snap.period(), 1u);

  plane->publish_fraction(0.5);
  srs.process_interval(one_bundle(10), srs_out);
  snap.process_interval(one_bundle(10), snap_out);
  EXPECT_EQ(srs.policy_epoch(), 1u);
  EXPECT_EQ(snap.policy_epoch(), 1u);
  EXPECT_DOUBLE_EQ(srs.probability(), 0.5);
  EXPECT_EQ(snap.period(), 2u);
  for (const SampledBundle& out : srs_out) {
    EXPECT_EQ(out.policy_epoch, 1u);
  }
}

TEST(PolicyStampTest, ThetaStoreTracksEpochSpan) {
  ThetaStore theta;
  EXPECT_EQ(theta.min_policy_epoch(), 0u);
  EXPECT_EQ(theta.max_policy_epoch(), 0u);

  WeightedSample pair;
  pair.weight = 1.0;
  pair.items = {Item{SubStreamId{1}, 1.0, 0}};
  theta.add_pair(SubStreamId{1}, pair, 3);
  theta.add_pair(SubStreamId{1}, pair, 5);
  theta.add_pair(SubStreamId{2}, pair, 4);
  EXPECT_EQ(theta.min_policy_epoch(), 3u);
  EXPECT_EQ(theta.max_policy_epoch(), 5u);

  const ApproxResult result = approximate_query(theta);
  EXPECT_EQ(result.policy_epoch_min, 3u);
  EXPECT_EQ(result.policy_epoch, 5u);

  theta.clear();
  EXPECT_EQ(theta.max_policy_epoch(), 0u);
}

// --- concurrency (runs under TSan in CI) --------------------------------

TEST(ControlPlaneConcurrencyTest, PublishRacesManyReaders) {
  ControlPlane plane;
  constexpr int kReaders = 4;
  constexpr int kPublishers = 2;
  constexpr int kPublishes = 500;
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&plane, &stop] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = plane.snapshot();
        // Epochs are monotone per reader (no stale snapshot can be
        // observed after a newer one).
        EXPECT_GE(snap->epoch, last);
        last = snap->epoch;
        // Touch the heap-allocated parts so TSan/ASan see the reader
        // access pattern a sampling node has (string read + doubles).
        EXPECT_FALSE(snap->whsamp.allocation_policy.empty());
        EXPECT_GT(snap->budget.sampling_fraction, 0.0);
      }
    });
  }

  std::vector<std::thread> publishers;
  publishers.reserve(kPublishers);
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&plane, p] {
      for (int i = 0; i < kPublishes; ++i) {
        SamplingPolicy next;
        next.budget.sampling_fraction = p == 0 ? 0.5 : 0.25;
        next.whsamp.allocation_policy =
            p == 0 ? "equal" : "proportional";
        plane.publish(std::move(next));
      }
    });
  }
  for (auto& t : publishers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Epochs are dense: every publish got its own version.
  EXPECT_EQ(plane.epoch(),
            static_cast<std::uint64_t>(kPublishers * kPublishes));
}

}  // namespace
}  // namespace approxiot::core
