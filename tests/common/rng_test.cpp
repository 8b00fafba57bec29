#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

namespace approxiot {
namespace {

TEST(SplitMix64Test, ProducesKnownFirstValueForZeroSeed) {
  SplitMix64 sm(0);
  // Reference value from the SplitMix64 reference implementation.
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
}

TEST(SplitMix64Test, DistinctSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsProduceDifferentStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng rng(99);
  const std::uint64_t first = rng.next();
  rng.next();
  rng.reseed(99);
  EXPECT_EQ(rng.next(), first);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000003ULL}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowZeroBoundReturnsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(RngTest, NextBelowIsRoughlyUniform) {
  Rng rng(13);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(bound)];
  for (std::uint64_t k = 0; k < bound; ++k) {
    EXPECT_NEAR(counts[k], n / static_cast<int>(bound), n / 100)
        << "bucket " << k;
  }
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(17);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_gaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(23);
  const double lambda = 4.0;
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(RngTest, PoissonSmallMeanMatches) {
  Rng rng(29);
  const double mean = 3.5;
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.next_poisson(mean));
  }
  EXPECT_NEAR(sum / n, mean, 0.05);
}

TEST(RngTest, PoissonLargeMeanMatches) {
  Rng rng(31);
  const double mean = 10000.0;
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.next_poisson(mean));
  }
  EXPECT_NEAR(sum / n / mean, 1.0, 0.005);
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(37);
  EXPECT_EQ(rng.next_poisson(0.0), 0u);
  EXPECT_EQ(rng.next_poisson(-5.0), 0u);
}

TEST(RngTest, JumpProducesNonOverlappingStream) {
  Rng base(41);
  Rng jumped = base;
  jumped.jump();
  // The jumped stream must not collide with the near future of the base
  // stream (2^128 steps apart in the sequence).
  std::set<std::uint64_t> base_values;
  for (int i = 0; i < 1000; ++i) base_values.insert(base.next());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    if (base_values.count(jumped.next()) > 0) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(RngTest, SplitStreamsAreDistinct) {
  Rng base(43);
  Rng a = base.split(0);
  Rng b = base.split(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

/// Test-local reference: the published xoshiro256** jump, walking 256
/// state transitions and XOR-accumulating the states the polynomial
/// selects. Rng::jump() must agree with it on every state.
std::array<std::uint64_t, 4> reference_jump(std::array<std::uint64_t, 4> s) {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  Rng walker;
  walker.restore_state(Rng::State{s, false, 0.0});
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        const auto cur = walker.save_state().s;
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= cur[i];
      }
      walker.next();
    }
  }
  return acc;
}

TEST(RngTest, JumpMatchesReferenceWalkOnRandomStates) {
  Rng source(2024);
  for (int trial = 0; trial < 1000; ++trial) {
    std::array<std::uint64_t, 4> s{};
    for (auto& w : s) w = source.next();
    // Sparse states too: single bits and all-zero words hit individual
    // table rows.
    if (trial % 10 == 0) s = {1ULL << (trial % 64), 0, 0, 0};
    if (trial % 10 == 1) s = {0, 0, 0, 1ULL << (trial % 64)};
    Rng rng;
    rng.restore_state(Rng::State{s, false, 0.0});
    rng.jump();
    ASSERT_EQ(rng.save_state().s, reference_jump(s)) << "trial " << trial;
  }
}

TEST(RngTest, JumpKnownAnswer) {
  Rng rng(42);
  rng.jump();
  const std::array<std::uint64_t, 4> expected{
      0x81746704fde896b5ULL, 0x645e944932dae0aeULL, 0xf4776829231c282cULL,
      0x2393f9798732dba1ULL};
  EXPECT_EQ(rng.save_state().s, expected);
}

TEST(RngTest, JumpDropsCachedGaussian) {
  Rng rng(5);
  (void)rng.next_gaussian();
  ASSERT_TRUE(rng.save_state().has_cached_gaussian);
  rng.jump();
  EXPECT_FALSE(rng.save_state().has_cached_gaussian);
}

}  // namespace
}  // namespace approxiot
