#include "core/theta_store.hpp"

#include <algorithm>

namespace approxiot::core {

const std::vector<WeightedSample> ThetaStore::kEmpty{};

WeightedSample& ThetaStore::new_pair(SubStreamId id) {
  std::vector<WeightedSample>& list = pairs_[id];
  list.emplace_back();
  WeightedSample& pair = list.back();
  if (!spares_.empty()) {
    pair.items = std::move(spares_.back());
    spares_.pop_back();
  }
  ++pair_count_;
  // clear() moves every pair's buffer into spares_ without allocating.
  if (spares_.capacity() < pair_count_) {
    spares_.reserve(std::max(pair_count_, 2 * spares_.capacity()));
  }
  return pair;
}

void ThetaStore::add(const SampledBundle& bundle) {
  bool any = false;
  for (const Stratum& s : bundle.sample.strata()) {
    if (s.len == 0) continue;
    const ItemSpan items = bundle.sample.span(s);
    WeightedSample& pair = new_pair(s.id);
    pair.weight = bundle.w_out.get(s.id);
    pair.items.assign(items.begin(), items.end());
    any = true;
  }
  if (any) note_epoch(bundle.policy_epoch);
}

void ThetaStore::add_pair(SubStreamId id, WeightedSample pair,
                          std::uint64_t policy_epoch) {
  if (pair.items.empty()) return;
  new_pair(id) = std::move(pair);
  note_epoch(policy_epoch);
}

void ThetaStore::clear() noexcept {
  spares_.clear();
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    if (it->second.empty()) {
      it = pairs_.erase(it);
      continue;
    }
    for (WeightedSample& pair : it->second) {
      spares_.push_back(std::move(pair.items));
    }
    it->second.clear();
    ++it;
  }
  pair_count_ = 0;
  epoch_min_ = 0;
  epoch_max_ = 0;
  epoch_seen_ = false;
}

void ThetaStore::note_epoch(std::uint64_t epoch) noexcept {
  if (!epoch_seen_) {
    epoch_min_ = epoch;
    epoch_max_ = epoch;
    epoch_seen_ = true;
    return;
  }
  if (epoch < epoch_min_) epoch_min_ = epoch;
  if (epoch > epoch_max_) epoch_max_ = epoch;
}

std::vector<SubStreamId> ThetaStore::sub_streams() const {
  std::vector<SubStreamId> out;
  out.reserve(pairs_.size());
  for (const auto& [id, list] : pairs_) {
    if (!list.empty()) out.push_back(id);
  }
  return out;
}

const std::vector<WeightedSample>& ThetaStore::pairs(SubStreamId id) const {
  auto it = pairs_.find(id);
  return it == pairs_.end() ? kEmpty : it->second;
}

std::uint64_t ThetaStore::sampled_count(SubStreamId id) const {
  std::uint64_t n = 0;
  for (const auto& pair : pairs(id)) n += pair.items.size();
  return n;
}

double ThetaStore::estimated_original_count(SubStreamId id) const {
  double c = 0.0;
  for (const auto& pair : pairs(id)) {
    c += static_cast<double>(pair.items.size()) * pair.weight;
  }
  return c;
}

std::uint64_t ThetaStore::total_sampled() const {
  std::uint64_t n = 0;
  for (const auto& [id, _] : pairs_) n += sampled_count(id);
  return n;
}

}  // namespace approxiot::core
