#include "core/whsamp.hpp"

#include <algorithm>
#include <utility>

namespace approxiot::core {

std::map<SubStreamId, std::vector<Item>> stratify(
    const std::vector<Item>& items) {
  std::map<SubStreamId, std::vector<Item>> strata;
  for (const Item& item : items) {
    strata[item.source].push_back(item);
  }
  return strata;
}

WHSampler::WHSampler(Rng rng, WHSampConfig config)
    : rng_(rng), config_(std::move(config)),
      policy_(sampling::make_allocation_policy(config_.allocation_policy)),
      reservoir_(0, Rng{}, config_.reservoir_algorithm) {}

void WHSampler::sample(const std::vector<Item>& items,
                       std::size_t sample_size, const WeightMap& w_in,
                       SampledBundle& out) {
  if (items.empty()) {
    out.clear();
    return;
  }
  // Line 5: stratify into sub-streams (flat counting build, buffers
  // reused across calls).
  scratch_.assign(items);
  sample_strata(scratch_, sample_size, w_in, out);
}

void WHSampler::sample_strata(const StratifiedBatch& strata,
                              std::size_t sample_size, const WeightMap& w_in,
                              SampledBundle& out) {
  out.clear();
  if (strata.item_count() == 0) return;

  // Line 7: decide each sub-stream's reservoir size N_i. The infos also
  // carry the resolved W^in_i so the merge loop below does not re-query
  // the weight map per stratum. W^in resolves for the whole ascending
  // directory in one merge pass rather than a hash probe per stratum.
  const auto& strata_dir = strata.strata();
  weights_scratch_.resize(strata_dir.size());
  w_in.get_for_strata(strata_dir, weights_scratch_.data());
  infos_.clear();
  infos_.reserve(strata.size());
  for (std::size_t k = 0; k < strata_dir.size(); ++k) {
    const Stratum& s = strata_dir[k];
    infos_.push_back(
        sampling::SubStreamInfo{s.id, s.len, 0.0, weights_scratch_[k]});
  }
  policy_->allocate(sample_size, infos_, sizes_);

  // Lines 8-19: reservoir-sample each sub-stream from its arena span and
  // update its weight. Strata are visited in ascending id order — the
  // same order the legacy map iteration used, so the RNG stream each
  // sub-stream draws from is unchanged: stratum k draws from J^(k+2) of
  // the entry state (see ahead_), one jump per stratum.
  if (!ahead_valid_) {
    ahead_ = rng_;
    ahead_.jump();
    ahead_valid_ = true;
  }
  const Item* arena = strata.items().data();
  out.sample.reserve_items(std::min(sample_size, strata.item_count()));
  const auto& dir = strata.strata();
  for (std::size_t k = 0; k < dir.size(); ++k) {
    const Stratum& s = dir[k];
    const std::uint64_t c_i = s.len;
    const std::size_t n_i = sizes_[k];

    rng_ = ahead_;  // J^(k+1): the state carried past stratum k
    ahead_.jump();  // J^(k+2): stratum k's own stream
    // Rearm instead of reconstruct: same capacity/RNG/counters as a
    // fresh reservoir, but the heap buffer survives.
    reservoir_.rearm(n_i, ahead_);
    reservoir_.offer_span(arena + s.offset, s.len);

    const double w_in_i = infos_[k].weight;
    if (c_i > n_i) {
      // Overflow: each kept item stands for c_i / N_i originals (Eq. 1-2).
      // A zero reservoir keeps nothing, so its weight never reaches Θ; we
      // still record it (weight unchanged) for observability.
      const double w_i = n_i > 0 ? static_cast<double>(c_i) /
                                       static_cast<double>(n_i)
                                 : 1.0;
      out.w_out.set(s.id, w_in_i * w_i);
    } else {
      out.w_out.set(s.id, w_in_i);
    }
    out.sample.append_stratum(s.id, reservoir_.contents());
  }
}

}  // namespace approxiot::core
