// Property tests of the paper's central invariant (Eq. 8): the estimated
// original item count of every sub-stream is EXACT at the root, no matter
// how many hops, how items split across intervals, or how aggressively
// each hop samples — because W^out · c̃ = W^in · c holds at every node.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/estimators.hpp"
#include "core/node.hpp"
#include "core/theta_store.hpp"

namespace approxiot::core {
namespace {

std::vector<Item> n_items(SubStreamId id, std::size_t n, double value = 1.0) {
  std::vector<Item> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Item{id, value, 0});
  return out;
}

NodeConfig fixed_config(std::size_t sample_size, std::uint64_t seed) {
  NodeConfig config;
  config.cost_function = "fixed";
  config.budget.fixed_sample_size = sample_size;
  config.rng_seed = seed;
  return config;
}

// Params: (chain depth, per-node reservoir budget, items per sub-stream).
using ChainParams = std::tuple<int, std::size_t, std::size_t>;

class CountInvariantTest : public ::testing::TestWithParam<ChainParams> {};

TEST_P(CountInvariantTest, CountEstimateExactThroughChain) {
  const auto [depth, budget, items_per_stream] = GetParam();

  std::vector<SamplingNode> chain;
  for (int d = 0; d < depth; ++d) {
    chain.emplace_back(
        fixed_config(budget, 977 + static_cast<std::uint64_t>(d)));
  }

  // Three sub-streams of different sizes.
  ItemBundle input;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    auto items = n_items(SubStreamId{s}, items_per_stream * s);
    input.items.insert(input.items.end(), items.begin(), items.end());
  }

  std::vector<ItemBundle> psi = {input};
  for (auto& node : chain) {
    std::vector<ItemBundle> next;
    std::vector<SampledBundle> outputs;
    node.process_interval(psi, outputs);
    for (SampledBundle& out : outputs) {
      next.push_back(out.to_bundle());
    }
    psi = std::move(next);
  }

  ThetaStore theta;
  for (const ItemBundle& bundle : psi) {
    SampledBundle as_sampled;
    as_sampled.w_out = bundle.w_in;
    for (const Item& item : bundle.items) {
      as_sampled.sample[item.source].push_back(item);
    }
    theta.add(as_sampled);
  }

  for (std::uint64_t s = 1; s <= 3; ++s) {
    const double truth = static_cast<double>(items_per_stream * s);
    // Exact as long as the sub-stream retained >= 1 item (an empty sample
    // carries no weight and loses the count, which the paper's estimator
    // shares; budgets in this sweep keep at least one item per stream).
    if (theta.sampled_count(SubStreamId{s}) > 0) {
      EXPECT_NEAR(theta.estimated_original_count(SubStreamId{s}), truth,
                  truth * 1e-9)
          << "depth=" << depth << " budget=" << budget << " stream=" << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChainSweep, CountInvariantTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(3, 10, 50),
                       ::testing::Values(10, 100)));

// All-ones streams: SUM estimate equals the count estimate, hence exact —
// the paper's Eq. 8 argument verbatim.
TEST(CountInvariantTest, AllOnesSumIsExact) {
  SamplingNode a(fixed_config(7, 1));
  SamplingNode b(fixed_config(3, 2));

  ItemBundle input;
  input.items = n_items(SubStreamId{1}, 500, 1.0);

  std::vector<SampledBundle> mid;
  a.process_interval({input}, mid);
  std::vector<ItemBundle> psi;
  for (auto& m : mid) psi.push_back(m.to_bundle());
  std::vector<SampledBundle> out;
  b.process_interval(psi, out);

  ThetaStore theta;
  for (auto& o : out) theta.add(o);
  EXPECT_DOUBLE_EQ(estimate_total_sum(theta), 500.0);
}

// Split-interval variant: the same original set forwarded in two chunks
// across different intervals of the downstream node still reconstructs
// the exact count (the paper's "items split across m intervals" case).
TEST(CountInvariantTest, SplitAcrossIntervalsStillExact) {
  SamplingNode upstream(fixed_config(8, 3));
  SamplingNode downstream(fixed_config(4, 4));

  ItemBundle input;
  input.items = n_items(SubStreamId{1}, 100);
  std::vector<SampledBundle> sampled;
  upstream.process_interval({input}, sampled);
  ASSERT_EQ(sampled.size(), 1u);
  ItemBundle forwarded = sampled[0].to_bundle();
  ASSERT_EQ(forwarded.items.size(), 8u);

  // Chunk 1 carries the weight; chunk 2 arrives in the next interval
  // weight-less (Fig. 3).
  ItemBundle chunk1, chunk2;
  chunk1.w_in = forwarded.w_in;
  chunk1.items.assign(forwarded.items.begin(), forwarded.items.begin() + 5);
  chunk2.items.assign(forwarded.items.begin() + 5, forwarded.items.end());

  ThetaStore theta;
  std::vector<SampledBundle> out;
  downstream.process_interval({chunk1}, out);
  for (auto& o : out) theta.add(o);
  downstream.process_interval({chunk2}, out);
  for (auto& o : out) theta.add(o);

  EXPECT_NEAR(theta.estimated_original_count(SubStreamId{1}), 100.0, 1e-9);
}

// Randomised stress: random chain depths, budgets and stream mixes.
TEST(CountInvariantTest, RandomizedChains) {
  Rng rng(20240612);
  for (int trial = 0; trial < 30; ++trial) {
    const int depth = 1 + static_cast<int>(rng.next_below(4));
    std::vector<SamplingNode> chain;
    for (int d = 0; d < depth; ++d) {
      const std::size_t budget = 2 + rng.next_below(40);
      chain.emplace_back(fixed_config(budget, rng.next()));
    }

    const std::uint64_t streams = 1 + rng.next_below(4);
    std::vector<std::size_t> truth(streams + 1, 0);
    ItemBundle input;
    for (std::uint64_t s = 1; s <= streams; ++s) {
      const std::size_t n = 1 + rng.next_below(200);
      truth[s] = n;
      auto items = n_items(SubStreamId{s}, n);
      input.items.insert(input.items.end(), items.begin(), items.end());
    }

    std::vector<ItemBundle> psi = {input};
    for (auto& node : chain) {
      std::vector<ItemBundle> next;
      std::vector<SampledBundle> outputs;
      node.process_interval(psi, outputs);
      for (SampledBundle& out : outputs) {
        next.push_back(out.to_bundle());
      }
      psi = std::move(next);
    }

    ThetaStore theta;
    for (const ItemBundle& bundle : psi) {
      SampledBundle as_sampled;
      as_sampled.w_out = bundle.w_in;
      for (const Item& item : bundle.items) {
        as_sampled.sample[item.source].push_back(item);
      }
      theta.add(as_sampled);
    }

    for (std::uint64_t s = 1; s <= streams; ++s) {
      if (theta.sampled_count(SubStreamId{s}) == 0) continue;
      const double t = static_cast<double>(truth[s]);
      EXPECT_NEAR(theta.estimated_original_count(SubStreamId{s}), t,
                  t * 1e-9)
          << "trial=" << trial << " stream=" << s;
    }
  }
}

}  // namespace
}  // namespace approxiot::core
