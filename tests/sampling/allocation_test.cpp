#include "sampling/allocation.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace approxiot::sampling {
namespace {

std::vector<SubStreamInfo> make_streams(
    std::initializer_list<std::uint64_t> counts) {
  std::vector<SubStreamInfo> out;
  std::uint64_t id = 1;
  for (std::uint64_t c : counts) {
    out.push_back(SubStreamInfo{approxiot::SubStreamId{id++}, c, 0.0});
  }
  return out;
}

std::vector<std::size_t> allocate(const AllocationPolicy& policy,
                                  std::size_t budget,
                                  const std::vector<SubStreamInfo>& streams) {
  std::vector<std::size_t> sizes;
  policy.allocate(budget, streams, sizes);
  return sizes;
}

std::size_t total(const std::vector<std::size_t>& sizes) {
  return std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
}

TEST(EqualAllocationTest, SplitsEvenly) {
  EqualAllocation policy;
  const auto sizes = allocate(policy, 100, make_streams({10, 10, 10, 10}));
  ASSERT_EQ(sizes.size(), 4u);
  for (const std::size_t n : sizes) EXPECT_EQ(n, 25u);
}

TEST(EqualAllocationTest, RemainderDistributedTotalExact) {
  EqualAllocation policy;
  const auto sizes = allocate(policy, 10, make_streams({5, 5, 5}));
  EXPECT_EQ(total(sizes), 10u);
  for (const std::size_t n : sizes) {
    EXPECT_GE(n, 3u);
    EXPECT_LE(n, 4u);
  }
}

TEST(EqualAllocationTest, EveryStreamGetsAtLeastOneWhenBudgetAllows) {
  EqualAllocation policy;
  // Highly imbalanced counts must not matter for the equal policy.
  const auto sizes = allocate(policy, 8, make_streams({1000000, 1, 1, 1}));
  for (const std::size_t n : sizes) EXPECT_GE(n, 1u);
  EXPECT_EQ(total(sizes), 8u);
}

TEST(EqualAllocationTest, DegenerateBudgetBelowStreamCount) {
  EqualAllocation policy;
  const auto sizes = allocate(policy, 2, make_streams({10, 10, 10, 10}));
  EXPECT_EQ(total(sizes), 2u);
  // Slots go to the lowest ids, deterministically.
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 1u);
  EXPECT_EQ(sizes[2], 0u);
  EXPECT_EQ(sizes[3], 0u);
}

TEST(EqualAllocationTest, ZeroBudgetGivesAllZeros) {
  EqualAllocation policy;
  const auto sizes = allocate(policy, 0, make_streams({5, 5}));
  EXPECT_EQ(total(sizes), 0u);
}

TEST(EqualAllocationTest, EmptyStreamsGiveEmptySizes) {
  EqualAllocation policy;
  EXPECT_TRUE(allocate(policy, 100, {}).empty());
}

TEST(EqualAllocationTest, SizesFollowStreamOrderAndTiesGoToLowestIds) {
  // Streams in descending id order: sizes[i] still belongs to streams[i],
  // and both the degenerate and the leftover deal favour the lowest ids.
  EqualAllocation policy;
  const std::vector<SubStreamInfo> streams = {
      {approxiot::SubStreamId{30}, 5, 0.0},
      {approxiot::SubStreamId{10}, 5, 0.0},
      {approxiot::SubStreamId{20}, 5, 0.0}};
  EXPECT_EQ(allocate(policy, 2, streams),
            (std::vector<std::size_t>{0, 1, 1}));
  EXPECT_EQ(allocate(policy, 4, streams),
            (std::vector<std::size_t>{1, 2, 1}));
}

TEST(EqualAllocationTest, ReusedSizesVectorIsResized) {
  EqualAllocation policy;
  std::vector<std::size_t> sizes(9, 77);
  policy.allocate(6, make_streams({1, 1, 1}), sizes);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2, 2}));
  policy.allocate(7, make_streams({1, 1, 1, 1}), sizes);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2, 2, 1}));
}

TEST(ProportionalAllocationTest, FollowsCounts) {
  ProportionalAllocation policy;
  const auto sizes = allocate(policy, 103, make_streams({300, 100, 100}));
  EXPECT_EQ(total(sizes), 103u);
  // 100 spare after the 3 guaranteed slots: 60/20/20.
  EXPECT_EQ(sizes[0], 61u);
  EXPECT_EQ(sizes[1], 21u);
  EXPECT_EQ(sizes[2], 21u);
}

TEST(ProportionalAllocationTest, RareStreamStillGuaranteedOne) {
  ProportionalAllocation policy;
  const auto sizes = allocate(policy, 100, make_streams({1000000, 1}));
  EXPECT_GE(sizes[1], 1u);
  EXPECT_EQ(total(sizes), 100u);
}

TEST(NeymanAllocationTest, HigherVarianceGetsMoreSlots) {
  NeymanAllocation policy;
  std::vector<SubStreamInfo> streams = {
      {approxiot::SubStreamId{1}, 100, 1.0},
      {approxiot::SubStreamId{2}, 100, 10.0},
  };
  const auto sizes = allocate(policy, 110, streams);
  EXPECT_EQ(total(sizes), 110u);
  EXPECT_GT(sizes[1], sizes[0]);
}

TEST(NeymanAllocationTest, ZeroStddevDegradesGracefully) {
  NeymanAllocation policy;
  std::vector<SubStreamInfo> streams = {
      {approxiot::SubStreamId{1}, 100, 0.0},
      {approxiot::SubStreamId{2}, 100, 0.0},
  };
  const auto sizes = allocate(policy, 10, streams);
  EXPECT_EQ(total(sizes), 10u);
  EXPECT_EQ(sizes[0], 5u);
}

TEST(AllocationFactoryTest, KnownNames) {
  EXPECT_EQ(make_allocation_policy("equal")->name(), "equal");
  EXPECT_EQ(make_allocation_policy("proportional")->name(), "proportional");
  EXPECT_EQ(make_allocation_policy("neyman")->name(), "neyman");
  EXPECT_THROW(make_allocation_policy("bogus"), std::invalid_argument);
}

// Property sweep: for any budget and stream mix, totals never exceed the
// budget and match it exactly when budget >= #streams.
class AllocationPropertyTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllocationPropertyTest, TotalsExactAndFair) {
  const std::size_t budget = GetParam();
  const auto streams = make_streams({1, 10, 100, 1000, 10000});
  for (const char* name : {"equal", "proportional", "neyman"}) {
    const auto sizes =
        allocate(*make_allocation_policy(name), budget, streams);
    EXPECT_EQ(total(sizes), budget) << name;
    if (budget >= streams.size()) {
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_GE(sizes[i], 1u)
            << name << " starved sub-stream " << streams[i].id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, AllocationPropertyTest,
                         ::testing::Values(0, 1, 3, 5, 6, 17, 100, 12345));

}  // namespace
}  // namespace approxiot::sampling
