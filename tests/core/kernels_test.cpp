// Property tests for src/core/kernels: every dispatch tier must be
// BIT-IDENTICAL to the scalar oracle — same stratification directory and
// arena permutation, same reservoir contents, same RNG consumption draw
// for draw (checked by continuing the stream after the kernel ran), same
// wire bytes. Sweeps cover span lengths around every SIMD width, start
// offsets (alignment), stratum shapes (one giant stratum, all-singletons
// past the AVX-512 inline-list limit, crafted mix64 probe collisions,
// ids above 2^32 that force the narrow-stretch bail), both reservoir
// algorithms, and Algorithm R's Lemire rejection path (seen near 2^63).
#include "core/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/stratified.hpp"
#include "core/weight_map.hpp"
#include "flowqueue/serde.hpp"
#include "sampling/reservoir.hpp"

namespace approxiot::core::kernels {
namespace {

// Restores the dispatch tier after every test: force_tier is process
// state, and a test that fails mid-sweep must not leak a scalar cap into
// the rest of the suite.
class KernelsTest : public ::testing::Test {
 protected:
  void TearDown() override { force_tier(detected_tier()); }

  static std::vector<Tier> tiers() {
    std::vector<Tier> out;
    for (int t = 0; t <= static_cast<int>(detected_tier()); ++t) {
      out.push_back(static_cast<Tier>(t));
    }
    return out;
  }
};

std::vector<Item> make_items(std::size_t n, std::uint64_t streams,
                             std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(Item{SubStreamId{1 + rng.next_below(streams)},
                         rng.next_double(),
                         static_cast<std::int64_t>(i)});
  }
  return items;
}

void expect_batches_equal(const StratifiedBatch& got,
                          const StratifiedBatch& want, const char* label) {
  ASSERT_EQ(got.strata().size(), want.strata().size()) << label;
  for (std::size_t k = 0; k < got.strata().size(); ++k) {
    EXPECT_EQ(got.strata()[k].id, want.strata()[k].id) << label;
    EXPECT_EQ(got.strata()[k].offset, want.strata()[k].offset) << label;
    EXPECT_EQ(got.strata()[k].len, want.strata()[k].len) << label;
  }
  ASSERT_EQ(got.items().size(), want.items().size()) << label;
  // Empty arenas may hold null data pointers, which memcmp must not see.
  if (got.items().empty()) return;
  EXPECT_TRUE(std::memcmp(got.items().data(), want.items().data(),
                          got.items().size() * sizeof(Item)) == 0)
      << label;
}

/// Builds the span with every tier and compares against the scalar
/// build. `data` may point anywhere (alignment sweeps pass offset
/// pointers).
void check_assign(const Item* data, std::size_t n, const char* label) {
  StratifyScratch scratch;
  StratifiedBatch want;
  force_tier(Tier::kScalar);
  want.assign(data, n, scratch);
  for (int t = 1; t <= static_cast<int>(detected_tier()); ++t) {
    force_tier(static_cast<Tier>(t));
    StratifiedBatch got;
    got.assign(data, n, scratch);
    expect_batches_equal(got, want, label);
  }
  force_tier(detected_tier());
}

TEST_F(KernelsTest, TierForcingClampsAndRestores) {
  EXPECT_EQ(force_tier(Tier::kScalar), Tier::kScalar);
  EXPECT_EQ(active_tier(), Tier::kScalar);
  // Asking for the top tier yields whatever this CPU actually has.
  EXPECT_EQ(force_tier(Tier::kAvx512), detected_tier());
  EXPECT_EQ(active_tier(), detected_tier());
}

TEST_F(KernelsTest, AssignLengthAndAlignmentSweep) {
  const std::size_t lengths[] = {0,  1,  2,  3,  7,  8,  9,  15, 16,
                                 17, 31, 32, 33, 63, 64, 65, 1000};
  // Generous pad so every (offset, len) window stays in bounds.
  const auto pool = make_items(1024 + 8, 16);
  for (const std::size_t len : lengths) {
    for (std::size_t offset = 0; offset <= 4; ++offset) {
      check_assign(pool.data() + offset, len, "length/alignment sweep");
    }
  }
}

TEST_F(KernelsTest, AssignStratumShapes) {
  {
    // One giant stratum: the counting pass sees a single hot slot.
    std::vector<Item> items = make_items(3000, 1);
    check_assign(items.data(), items.size(), "one giant stratum");
  }
  {
    // All singletons, 200 distinct ids: past kMaxInlineStrata, so the
    // AVX-512 list pass must restart on the hash path mid-stream.
    std::vector<Item> items;
    for (std::size_t i = 0; i < 200; ++i) {
      items.push_back(Item{SubStreamId{1000 + i * 17}, 0.5,
                           static_cast<std::int64_t>(i)});
    }
    check_assign(items.data(), items.size(), "all singletons");
  }
  {
    // Exactly at and one past the inline-list limit.
    for (const std::size_t distinct : {kMaxInlineStrata,
                                       kMaxInlineStrata + 1}) {
      std::vector<Item> items;
      for (std::size_t i = 0; i < distinct * 5; ++i) {
        items.push_back(Item{SubStreamId{1 + i % distinct}, 0.25,
                             static_cast<std::int64_t>(i)});
      }
      check_assign(items.data(), items.size(), "inline-list boundary");
    }
  }
  {
    // Crafted mix64 collisions: ids whose hashes share the low 4 bits
    // land in the same initial probe chain of the 16-slot index.
    std::vector<std::uint64_t> colliders;
    for (std::uint64_t id = 1; colliders.size() < 24; ++id) {
      if ((mix64(id) & 15) == 3) colliders.push_back(id);
    }
    std::vector<Item> items;
    for (std::size_t i = 0; i < 600; ++i) {
      items.push_back(Item{SubStreamId{colliders[i % colliders.size()]},
                           1.0, static_cast<std::int64_t>(i)});
    }
    check_assign(items.data(), items.size(), "mix64 collisions");
  }
  {
    // Ids above 2^32 force the AVX-512 narrow stretch to bail out; the
    // wide id shares its low 32 bits with a narrow one, so truncated
    // compares would mis-slot it.
    const std::uint64_t narrow = 12345;
    const std::uint64_t wide = narrow | (std::uint64_t{9} << 32);
    std::vector<Item> items;
    for (std::size_t i = 0; i < 300; ++i) {
      const std::uint64_t id = i < 150 ? narrow : (i % 2 ? wide : narrow);
      items.push_back(Item{SubStreamId{id}, 2.0,
                           static_cast<std::int64_t>(i)});
    }
    check_assign(items.data(), items.size(), "wide-id truncation trap");
    std::vector<Item> all_wide;
    for (std::size_t i = 0; i < 100; ++i) {
      all_wide.push_back(Item{SubStreamId{(std::uint64_t{1} << 40) + i % 7},
                              3.0, static_cast<std::int64_t>(i)});
    }
    check_assign(all_wide.data(), all_wide.size(), "all ids wide");
  }
}

// --- Reservoir span kernels -------------------------------------------------

/// Runs offer_span split at `cut`, then continues with per-item offer()
/// calls — the continuation only matches if the kernel left seen/rng
/// (and Algorithm L's w/skip) exactly where the scalar loop would.
std::vector<Item> reservoir_run(Tier tier,
                                sampling::ReservoirAlgorithm algorithm,
                                const std::vector<Item>& items,
                                std::size_t cap, std::size_t cut,
                                const std::vector<Item>& continuation) {
  force_tier(tier);
  sampling::ReservoirSampler<Item> res(cap, Rng(99), algorithm);
  res.offer_span(items.data(), cut);
  res.offer_span(items.data() + cut, items.size() - cut);
  for (const Item& item : continuation) res.offer(item);
  force_tier(detected_tier());
  return res.contents();
}

TEST_F(KernelsTest, OfferSpanBitIdenticalBothAlgorithms) {
  const auto continuation = make_items(64, 16, 5);
  for (const auto algorithm : {sampling::ReservoirAlgorithm::kAlgorithmR,
                               sampling::ReservoirAlgorithm::kAlgorithmL}) {
    for (const std::size_t n : {0ul, 1ul, 7ul, 33ul, 64ul, 65ul, 1000ul,
                                5000ul}) {
      const auto items = make_items(n, 16);
      for (const std::size_t cap : {0ul, 1ul, 16ul, 100ul, n, n + 10}) {
        const std::size_t cut = n / 3;
        const auto want = reservoir_run(Tier::kScalar, algorithm, items, cap,
                                        cut, continuation);
        for (const Tier tier : tiers()) {
          EXPECT_EQ(reservoir_run(tier, algorithm, items, cap, cut,
                                  continuation),
                    want)
              << "algo=" << static_cast<int>(algorithm)
              << " tier=" << tier_name(tier) << " n=" << n
              << " cap=" << cap;
        }
      }
    }
  }
}

TEST_F(KernelsTest, AlgoRRejectionPathNearBoundCeiling) {
  // With seen near 2^63 the Lemire pre-filter fires roughly every other
  // draw, so the ring's replay path (re-consuming the pre-drawn words,
  // then topping up from the generator) runs constantly instead of
  // almost never. The scalar loop below is the contract: one
  // next_below(++seen) per item.
  const std::size_t cap = 32;
  const auto data = make_items(500, 16, 11);
  for (const Tier tier : tiers()) {
    for (const std::uint64_t seen0 :
         {(std::uint64_t{1} << 63) - 7, (std::uint64_t{1} << 63) + 251,
          ~std::uint64_t{0} - 600}) {
      std::vector<Item> want(cap, Item{});
      std::uint64_t want_seen = seen0;
      Rng want_rng(42);
      for (const Item& item : data) {
        const std::uint64_t j = want_rng.next_below(++want_seen);
        if (j < cap) want[j] = item;
      }

      std::vector<Item> got(cap, Item{});
      std::uint64_t got_seen = seen0;
      Rng got_rng(42);
      algo_r_full(tier, got.data(), cap, data.data(), data.size(), got_seen,
                  got_rng);

      EXPECT_EQ(got, want) << tier_name(tier);
      EXPECT_EQ(got_seen, want_seen) << tier_name(tier);
      // Same words consumed: the generators continue in lockstep.
      for (int k = 0; k < 8; ++k) {
        EXPECT_EQ(got_rng.next(), want_rng.next()) << tier_name(tier);
      }
    }
  }
}

// --- Wire encoder -----------------------------------------------------------

TEST_F(KernelsTest, EncodeBytesIdenticalIncludingMultiByteVarints) {
  // Ids straddling every varint length (1..10 bytes), plus value edge
  // cases; the reference bytes come from the Encoder primitives the
  // scalar path uses.
  std::vector<Item> items;
  std::int64_t ts = -3;
  for (const std::uint64_t id :
       {std::uint64_t{1}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{16383}, std::uint64_t{16384}, std::uint64_t{1} << 32,
        (std::uint64_t{1} << 56) - 1, std::uint64_t{1} << 56,
        ~std::uint64_t{0}}) {
    items.push_back(Item{SubStreamId{id}, -0.0, ts++});
    items.push_back(Item{SubStreamId{id}, 1e300, ts++});
  }
  const auto bulk = make_items(777, 16, 3);
  items.insert(items.end(), bulk.begin(), bulk.end());

  flowqueue::Encoder want;
  for (const Item& item : items) {
    want.put_varint(item.source.value());
    want.put_double(item.value);
    want.put_fixed64(static_cast<std::uint64_t>(item.created_at_us));
  }

  for (const Tier tier : tiers()) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{17}, items.size()}) {
      std::vector<std::uint8_t> got(n * kMaxItemWireBytes + 1);
      const std::size_t used =
          encode_items(tier, got.data(), items.data(), n);
      const std::size_t want_bytes = [&] {
        flowqueue::Encoder e;
        for (std::size_t i = 0; i < n; ++i) {
          e.put_varint(items[i].source.value());
          e.put_double(items[i].value);
          e.put_fixed64(static_cast<std::uint64_t>(items[i].created_at_us));
        }
        return e.bytes().size();
      }();
      ASSERT_EQ(used, want_bytes) << tier_name(tier) << " n=" << n;
      EXPECT_TRUE(std::memcmp(got.data(), want.bytes().data(), used) == 0)
          << tier_name(tier) << " n=" << n;
    }
  }
}

// --- WeightMap block lookups ------------------------------------------------

TEST_F(KernelsTest, GetForStrataMatchesPointLookups) {
  Rng rng(17);
  for (int round = 0; round < 20; ++round) {
    WeightMap map;
    const std::size_t entries = rng.next_below(40);
    for (std::size_t k = 0; k < entries; ++k) {
      map.set(SubStreamId{1 + rng.next_below(300)},
              0.5 + rng.next_double());
    }
    // Ascending directory, half the ids absent from the map.
    std::vector<Stratum> dir;
    std::uint64_t id = 1;
    const std::size_t strata = 1 + rng.next_below(80);
    for (std::size_t k = 0; k < strata; ++k) {
      id += 1 + rng.next_below(8);
      dir.push_back(Stratum{SubStreamId{id}, 0, 1});
    }
    std::vector<double> got(dir.size(), -1.0);
    map.get_for_strata(dir, got.data());
    for (std::size_t k = 0; k < dir.size(); ++k) {
      EXPECT_EQ(got[k], map.get(dir[k].id)) << "stratum " << k;
    }
  }
}

}  // namespace
}  // namespace approxiot::core::kernels
