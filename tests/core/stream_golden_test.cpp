// Golden checksums for the sequential EdgeTree: every window's answer and
// the final checkpoint bytes of seeded multi-layer runs with many strata,
// folded into one FNV-1a value per configuration.
//
// The oracle tests compare the concurrent runtime against EdgeTree, and
// both run the same sampling code, so a change to the RNG streams (jump,
// per-stratum stream derivation) or to the weight resolution would move
// both sides at once and pass them. These constants were captured from
// the implementation before the table-driven jump and the one-jump-per-
// stratum look-ahead went in; they pin the exact samples, RNG states and
// checkpoint format, so any performance change that alters a draw fails
// here. The last test pins the single-threaded §III-E model
// (ParallelSampler) the same way.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "core/pipeline.hpp"

namespace approxiot::core {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      add_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add_byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

/// 30 intervals through `config`'s tree, a window closed every 5. Each
/// leaf carries up to 16 sub-streams of 1..40 items; a sub-stream is
/// sometimes absent for an interval, so weight carry-over (Fig. 3) and
/// interleaved first sightings are exercised too.
std::uint64_t run_checksum(const EdgeTreeConfig& config,
                           std::uint64_t input_seed) {
  EdgeTree tree(config);
  Rng gen(input_seed);
  Fnv1a h;
  for (int interval = 0; interval < 30; ++interval) {
    std::vector<std::vector<Item>> per_leaf(tree.leaf_count());
    for (std::size_t leaf = 0; leaf < per_leaf.size(); ++leaf) {
      const std::uint64_t strata = 1 + gen.next_below(16);
      for (std::uint64_t s = 0; s < strata; ++s) {
        if (gen.next_below(5) == 0) continue;
        const SubStreamId id{leaf * 100 + s * 7};
        const std::uint64_t n = 1 + gen.next_below(40);
        for (std::uint64_t i = 0; i < n; ++i) {
          per_leaf[leaf].push_back(
              Item{id, gen.next_double() * 100.0, interval});
        }
      }
    }
    tree.tick(per_leaf);
    if (interval % 5 == 4) {
      const ApproxResult r = tree.close_window();
      h.add(r.sum.point);
      h.add(r.sum.margin);
      h.add(r.mean.point);
      h.add(r.mean.margin);
      h.add(r.estimated_count);
      h.add(r.sampled_items);
    }
  }
  for (const std::uint8_t b : tree.checkpoint().bytes) h.add_byte(b);
  return h.value();
}

/// 40 intervals through one long-lived ParallelSampler: up to 12
/// shuffled sub-streams of 1..40 items (a quarter of them up to 3000),
/// some with an incoming weight, budgets 0..199 so that some reservoirs
/// are smaller than the worker count and get clamped. Folds every
/// stratum's id, kept items and W^out into one FNV-1a value.
std::uint64_t parallel_checksum(std::size_t workers) {
  ParallelSampler sampler(workers, Rng(0xabcdef + workers));
  Rng gen(77);
  Fnv1a h;
  SampledBundle out;
  for (int interval = 0; interval < 40; ++interval) {
    std::vector<Item> items;
    WeightMap w_in;
    const std::uint64_t strata = gen.next_below(13);
    for (std::uint64_t s = 0; s < strata; ++s) {
      const SubStreamId id{gen.next_below(50)};
      if (gen.next_below(3) == 0) w_in.set(id, 1.0 + gen.next_double() * 9.0);
      const std::uint64_t n =
          1 + gen.next_below(gen.next_below(4) == 0 ? 3000 : 40);
      for (std::uint64_t i = 0; i < n; ++i) {
        items.push_back(Item{id, gen.next_double() * 100.0,
                             static_cast<std::int64_t>(items.size())});
      }
    }
    // Interleave sub-streams so arrival order differs from stratum order.
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[gen.next_below(i)]);
    }
    const std::size_t sample_size = gen.next_below(200);
    sampler.sample(items, sample_size, w_in, out);
    h.add(static_cast<std::uint64_t>(out.sample.strata().size()));
    for (const Stratum& s : out.sample.strata()) {
      h.add(s.id.value());
      h.add(static_cast<std::uint64_t>(s.len));
      h.add(out.w_out.get(s.id));
      for (std::size_t i = 0; i < s.len; ++i) {
        const Item& item = out.sample.items()[s.offset + i];
        h.add(item.source.value());
        h.add(item.value);
        h.add(static_cast<std::uint64_t>(item.created_at_us));
      }
    }
  }
  return h.value();
}

TEST(StreamGoldenTest, WhsEqualAllocationAlgorithmR) {
  EdgeTreeConfig config;
  config.layer_widths = {12, 4, 2};
  config.sampling_fraction = 0.3;
  config.rng_seed = 7;
  EXPECT_EQ(run_checksum(config, 1001), 0x9403a78c0149a14dULL);
}

TEST(StreamGoldenTest, WhsProportionalAllocationAlgorithmL) {
  EdgeTreeConfig config;
  config.layer_widths = {8, 8, 3};
  config.sampling_fraction = 0.5;
  config.allocation_policy = "proportional";
  config.reservoir_algorithm = sampling::ReservoirAlgorithm::kAlgorithmL;
  config.rng_seed = 99;
  EXPECT_EQ(run_checksum(config, 2002), 0x176395b32671b842ULL);
}

TEST(StreamGoldenTest, SrsEngine) {
  EdgeTreeConfig config;
  config.layer_widths = {12, 4, 2};
  config.engine = EngineKind::kSrs;
  config.sampling_fraction = 0.3;
  config.rng_seed = 7;
  EXPECT_EQ(run_checksum(config, 3003), 0x925627494bea1570ULL);
}

// The §III-E model (core/parallel.hpp) at w ∈ {1, 2, 4, 8}: pins shard
// assignment (within-stratum position mod w), the clamp, the worker RNG
// streams (split for worker 0, reseeds drawn from a copy, one jump per
// stratum) and the merge order. The constants were captured from the
// thread-pool implementation this model replaced.
TEST(StreamGoldenTest, ParallelSamplerAcrossWorkerCounts) {
  EXPECT_EQ(parallel_checksum(1), 0x023e255a1844c8b5ULL);
  EXPECT_EQ(parallel_checksum(2), 0xc16fcd858f63bcb1ULL);
  EXPECT_EQ(parallel_checksum(4), 0x249248fb90e9547fULL);
  EXPECT_EQ(parallel_checksum(8), 0x1b80a8a3e4cc3677ULL);
}

}  // namespace
}  // namespace approxiot::core
