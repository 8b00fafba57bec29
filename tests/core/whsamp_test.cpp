#include "core/whsamp.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace approxiot::core {
namespace {

std::vector<Item> items_of(SubStreamId id, std::initializer_list<double> vals) {
  std::vector<Item> out;
  for (double v : vals) out.push_back(Item{id, v, 0});
  return out;
}

std::vector<Item> n_items(SubStreamId id, std::size_t n, double value = 1.0) {
  std::vector<Item> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Item{id, value, 0});
  return out;
}

TEST(StratifyTest, GroupsBySource) {
  std::vector<Item> items;
  for (auto& i : items_of(SubStreamId{1}, {1, 2})) items.push_back(i);
  for (auto& i : items_of(SubStreamId{2}, {3})) items.push_back(i);
  for (auto& i : items_of(SubStreamId{1}, {4})) items.push_back(i);

  auto strata = stratify(items);
  ASSERT_EQ(strata.size(), 2u);
  EXPECT_EQ(strata.at(SubStreamId{1}).size(), 3u);
  EXPECT_EQ(strata.at(SubStreamId{2}).size(), 1u);
}

TEST(StratifyTest, EmptyInput) {
  EXPECT_TRUE(stratify({}).empty());
}

TEST(WHSamplerTest, UnderfullStreamKeepsWeightAndItems) {
  WHSampler sampler;
  WeightMap w_in;
  SampledBundle out;
  sampler.sample(items_of(SubStreamId{1}, {5, 6, 7}), 10, w_in, out);
  EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{1}), 1.0);
  EXPECT_EQ(out.sample.at(SubStreamId{1}).size(), 3u);
}

TEST(WHSamplerTest, OverflowUpdatesWeightPerEquationOne) {
  // The Fig. 2 example: 4 items, reservoir 3 -> w = 4/3, W_out = W_in*4/3.
  WHSampler sampler;
  WeightMap w_in;
  w_in.set(SubStreamId{1}, 3.0);
  SampledBundle out;
  sampler.sample(items_of(SubStreamId{1}, {1, 2, 3, 4}), 3, w_in, out);
  EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{1}), 3.0 * 4.0 / 3.0);
  EXPECT_EQ(out.sample.at(SubStreamId{1}).size(), 3u);
}

TEST(WHSamplerTest, WeightInvariantHoldsPerCall) {
  // W_out * c_tilde == W_in * c for every sub-stream (Eq. 8 per node).
  WHSampler sampler(Rng(17));
  WeightMap w_in;
  w_in.set(SubStreamId{1}, 2.5);
  w_in.set(SubStreamId{2}, 1.0);

  std::vector<Item> items = n_items(SubStreamId{1}, 100);
  auto more = n_items(SubStreamId{2}, 7);
  items.insert(items.end(), more.begin(), more.end());

  SampledBundle out;
  sampler.sample(items, 20, w_in, out);
  const double lhs1 = out.w_out.get(SubStreamId{1}) *
                      static_cast<double>(out.sample.at(SubStreamId{1}).size());
  EXPECT_DOUBLE_EQ(lhs1, 2.5 * 100.0);
  const double lhs2 = out.w_out.get(SubStreamId{2}) *
                      static_cast<double>(out.sample.at(SubStreamId{2}).size());
  EXPECT_DOUBLE_EQ(lhs2, 1.0 * 7.0);
}

TEST(WHSamplerTest, BudgetSplitAcrossSubStreams) {
  WHSampler sampler(Rng(23));
  WeightMap w_in;
  std::vector<Item> items = n_items(SubStreamId{1}, 1000);
  auto more = n_items(SubStreamId{2}, 1000);
  items.insert(items.end(), more.begin(), more.end());

  SampledBundle out;
  sampler.sample(items, 10, w_in, out);
  // Equal allocation: 5 + 5.
  EXPECT_EQ(out.sample.at(SubStreamId{1}).size(), 5u);
  EXPECT_EQ(out.sample.at(SubStreamId{2}).size(), 5u);
  EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{1}), 200.0);
  EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{2}), 200.0);
}

TEST(WHSamplerTest, RareSubStreamNotStarved) {
  // The stratification guarantee: a 10-item sub-stream sharing a node
  // with a 100k-item sub-stream still lands in the sample.
  WHSampler sampler(Rng(29));
  WeightMap w_in;
  std::vector<Item> items = n_items(SubStreamId{1}, 100000);
  auto rare = n_items(SubStreamId{2}, 10, 42.0);
  items.insert(items.end(), rare.begin(), rare.end());

  SampledBundle out;
  sampler.sample(items, 100, w_in, out);
  EXPECT_FALSE(out.sample.at(SubStreamId{2}).empty());
}

TEST(WHSamplerTest, EmptyItemsGiveEmptyOutput) {
  WHSampler sampler;
  SampledBundle out;
  sampler.sample({}, 10, WeightMap{}, out);
  EXPECT_TRUE(out.sample.empty());
  EXPECT_TRUE(out.w_out.empty());
  EXPECT_EQ(out.item_count(), 0u);
}

TEST(WHSamplerTest, ZeroBudgetKeepsNothingButReportsStreams) {
  WHSampler sampler(Rng(31));
  SampledBundle out;
  sampler.sample(n_items(SubStreamId{1}, 10), 0, WeightMap{}, out);
  EXPECT_TRUE(out.sample.at(SubStreamId{1}).empty());
  // Weight entry still recorded for observability.
  EXPECT_TRUE(out.w_out.contains(SubStreamId{1}));
}

TEST(WHSamplerTest, SampledItemsComeFromInput) {
  WHSampler sampler(Rng(37));
  SampledBundle out;
  sampler.sample(items_of(SubStreamId{1}, {10, 20, 30, 40, 50}), 2,
                 WeightMap{}, out);
  for (const Item& item : out.sample.at(SubStreamId{1})) {
    EXPECT_TRUE(item.value == 10 || item.value == 20 || item.value == 30 ||
                item.value == 40 || item.value == 50);
  }
}

TEST(WHSamplerTest, AlgorithmLVariantMatchesInvariant) {
  WHSampConfig config;
  config.reservoir_algorithm = sampling::ReservoirAlgorithm::kAlgorithmL;
  WHSampler sampler(Rng(41), config);
  SampledBundle out;
  sampler.sample(n_items(SubStreamId{1}, 500), 50, WeightMap{}, out);
  EXPECT_EQ(out.sample.at(SubStreamId{1}).size(), 50u);
  EXPECT_DOUBLE_EQ(out.w_out.get(SubStreamId{1}), 10.0);
}

TEST(WHSamplerTest, BundleFlattening) {
  WHSampler sampler(Rng(43));
  WeightMap w_in;
  std::vector<Item> items = n_items(SubStreamId{1}, 10);
  auto more = n_items(SubStreamId{2}, 10);
  items.insert(items.end(), more.begin(), more.end());
  SampledBundle out;
  sampler.sample(items, 100, w_in, out);

  ItemBundle bundle = out.to_bundle();
  EXPECT_EQ(bundle.items.size(), 20u);
  EXPECT_DOUBLE_EQ(bundle.w_in.get(SubStreamId{1}), 1.0);
}

Rng jumped(Rng rng, int times) {
  for (int i = 0; i < times; ++i) rng.jump();
  return rng;
}

/// `ids.size()` overflowing strata of 30 distinct-valued items each.
std::vector<Item> overflowing_strata(const std::vector<std::uint64_t>& ids) {
  std::vector<Item> items;
  for (int i = 0; i < 30; ++i) {
    for (const std::uint64_t id : ids) {
      items.push_back(Item{SubStreamId{id}, id * 1000.0 + i, i});
    }
  }
  return items;
}

/// Checks one sample() call against the documented stream chain: with
/// entry state s, the j-th stratum (ascending id) is a reservoir of its
/// N_j = budget / k slots drawing from J^(j+2)(s), and the sampler ends
/// at J^k(s).
void expect_stream_chain(WHSampler& sampler,
                         const std::vector<std::uint64_t>& sorted_ids) {
  const std::size_t k = sorted_ids.size();
  const std::size_t per_stratum = 8;
  Rng entry;
  entry.restore_state(sampler.rng_state());
  const std::vector<Item> items = overflowing_strata(sorted_ids);
  SampledBundle out;
  sampler.sample(items, per_stratum * k, {}, out);
  for (std::size_t j = 0; j < k; ++j) {
    const SubStreamId id{sorted_ids[j]};
    sampling::ReservoirSampler<Item> reference(
        per_stratum, jumped(entry, static_cast<int>(j) + 2));
    for (const Item& item : items) {
      if (item.source == id) reference.offer(item);
    }
    const ItemSpan got = out.sample.at(id);
    const std::vector<Item> got_items(got.begin(), got.end());
    EXPECT_EQ(got_items, reference.contents()) << "stratum " << j;
  }
  EXPECT_EQ(sampler.rng_state().s,
            jumped(entry, static_cast<int>(k)).save_state().s);
}

TEST(WHSamplerStreamTest, StratumJDrawsFromEntryJumpedJPlusTwo) {
  WHSampler sampler(Rng(77));
  expect_stream_chain(sampler, {3, 8, 11, 20, 42});
  // The second call starts from the carried state (and the look-ahead
  // primed by the first call).
  expect_stream_chain(sampler, {5, 6});
  expect_stream_chain(sampler, {1});
}

TEST(WHSamplerStreamTest, RestoreWithPrimedLookAheadContinuesBitIdentically) {
  const std::vector<Item> first = overflowing_strata({2, 4, 6});
  const std::vector<Item> second = overflowing_strata({1, 3, 5, 7});
  const std::vector<Item> third = overflowing_strata({9});

  SampledBundle scratch;
  WHSampler uninterrupted(Rng(5));
  uninterrupted.sample(first, 12, {}, scratch);
  const Rng::State saved = uninterrupted.rng_state();
  SampledBundle second_ref;
  uninterrupted.sample(second, 12, {}, second_ref);
  SampledBundle third_ref;
  uninterrupted.sample(third, 12, {}, third_ref);

  // A sampler whose look-ahead is primed from a different history: the
  // restore must discard it, not sample from it.
  WHSampler restored(Rng(6));
  restored.sample(first, 12, {}, scratch);
  restored.set_rng_state(saved);
  SampledBundle second_got;
  restored.sample(second, 12, {}, second_got);
  SampledBundle third_got;
  restored.sample(third, 12, {}, third_got);

  EXPECT_EQ(second_got.sample, second_ref.sample);
  EXPECT_EQ(second_got.w_out, second_ref.w_out);
  EXPECT_EQ(third_got.sample, third_ref.sample);
  EXPECT_EQ(restored.rng_state().s, uninterrupted.rng_state().s);

  // Restoring the state a sampler already holds is a no-op too.
  WHSampler same(Rng(5));
  same.sample(first, 12, {}, scratch);
  same.set_rng_state(same.rng_state());
  same.sample(second, 12, {}, scratch);
  EXPECT_EQ(scratch.sample, second_ref.sample);
}

}  // namespace
}  // namespace approxiot::core
