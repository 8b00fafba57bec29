// The out-parameter contract of PipelineStage::process_interval: a stage
// that samples into a caller-owned, reused output vector — already full of
// bundles, strata and weights from earlier intervals — must produce
// exactly what it produces into a fresh vector. Every engine is run on a
// randomised interval sequence whose bundle count shrinks and grows,
// which starves some strata of reservoir slots, and which checkpoints and
// restores the stage midway; each interval's output is compared bundle by
// bundle (weights, items, directory, epoch) against a twin stage that
// gets a new vector every time.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"

namespace approxiot::core {
namespace {

std::vector<Item> random_items(Rng& rng, std::size_t n) {
  std::vector<Item> items;
  for (std::size_t i = 0; i < n; ++i) {
    const SubStreamId id{1 + rng.next_below(6)};
    items.push_back(Item{id, rng.next_double() * 100.0,
                         static_cast<std::int64_t>(i)});
  }
  return items;
}

/// Ψ for one interval. Bundle counts vary (0..5, some bundles empty) so
/// the output vector shrinks and grows.
std::vector<ItemBundle> make_psi(Rng& rng) {
  std::vector<ItemBundle> psi;
  const std::size_t bundles = rng.next_below(6);
  for (std::size_t b = 0; b < bundles; ++b) {
    ItemBundle bundle;
    bundle.items = random_items(rng, rng.next_below(40));
    for (std::uint64_t id = 1; id <= 6; ++id) {
      if (rng.next_below(3) == 0) {
        bundle.w_in.set(SubStreamId{id}, 1.0 + rng.next_double() * 4.0);
      }
    }
    psi.push_back(std::move(bundle));
  }
  return psi;
}

void expect_identical(const std::vector<SampledBundle>& got,
                      const std::vector<SampledBundle>& want, int interval) {
  ASSERT_EQ(got.size(), want.size()) << "interval " << interval;
  for (std::size_t b = 0; b < got.size(); ++b) {
    const SampledBundle& g = got[b];
    const SampledBundle& w = want[b];
    EXPECT_EQ(g.w_out, w.w_out) << "interval " << interval << " bundle " << b;
    EXPECT_EQ(g.policy_epoch, w.policy_epoch) << "interval " << interval;
    EXPECT_EQ(g.sample.items(), w.sample.items()) << "interval " << interval;
    const auto& gd = g.sample.strata();
    const auto& wd = w.sample.strata();
    ASSERT_EQ(gd.size(), wd.size()) << "interval " << interval;
    for (std::size_t k = 0; k < gd.size(); ++k) {
      EXPECT_EQ(gd[k].id, wd[k].id) << "interval " << interval;
      EXPECT_EQ(gd[k].offset, wd[k].offset) << "interval " << interval;
      EXPECT_EQ(gd[k].len, wd[k].len) << "interval " << interval;
    }
  }
}

/// A full, unrelated output set: the reused vector starts out dirty.
std::vector<SampledBundle> garbage_outputs() {
  std::vector<SampledBundle> out(4);
  Rng rng(99);
  for (SampledBundle& bundle : out) {
    bundle.sample.assign(random_items(rng, 50));
    for (std::uint64_t id = 1; id <= 9; ++id) {
      bundle.w_out.set(SubStreamId{id}, 123.0);
    }
    bundle.policy_epoch = 77;
  }
  return out;
}

class StageReuseTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(StageReuseTest, DirtyReusedOutputMatchesFreshOutput) {
  EdgeTreeConfig config;
  config.layer_widths = {2, 1};
  config.engine = GetParam();
  config.sampling_fraction = 0.3;
  config.control_plane = make_control_plane(config);
  const StageConfig stage_config = edge_tree_stage_config(config, 0, 0);

  std::unique_ptr<PipelineStage> reused = make_pipeline_stage(stage_config);
  std::unique_ptr<PipelineStage> fresh = make_pipeline_stage(stage_config);
  std::vector<SampledBundle> out = garbage_outputs();

  Rng rng(20180701);
  bool zero_reservoir_seen = false;
  for (int interval = 0; interval < 40; ++interval) {
    // Policy epochs change the stamped epoch; a zero fraction gives every
    // stratum a zero-size reservoir (and SRS/snapshot empty outputs).
    if (interval == 13) config.control_plane->publish_fraction(0.6);
    if (interval == 26) config.control_plane->publish_fraction(0.0);
    if (interval == 29) config.control_plane->publish_fraction(0.5);
    if (interval == 20) {
      // Mid-run checkpoint: continue on a restored copy of the reused
      // stage, still writing into the same dirty vector.
      std::unique_ptr<PipelineStage> restored =
          make_pipeline_stage(stage_config);
      restore_stage(*restored, checkpoint_stage(*reused));
      reused = std::move(restored);
    }
    const std::vector<ItemBundle> psi = make_psi(rng);
    reused->process_interval(psi, out);
    std::vector<SampledBundle> want;
    fresh->process_interval(psi, want);
    expect_identical(out, want, interval);
    for (const SampledBundle& bundle : want) {
      for (const Stratum& s : bundle.sample.strata()) {
        if (s.len == 0) zero_reservoir_seen = true;
      }
    }
  }
  if (GetParam() == EngineKind::kApproxIoT) {
    EXPECT_TRUE(zero_reservoir_seen);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, StageReuseTest,
    ::testing::Values(EngineKind::kApproxIoT, EngineKind::kSrs,
                      EngineKind::kSnapshot, EngineKind::kNative),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(engine_kind_name(info.param));
    });

}  // namespace
}  // namespace approxiot::core
