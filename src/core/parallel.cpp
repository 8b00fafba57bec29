#include "core/parallel.hpp"

#include <algorithm>

namespace approxiot::core {

// ---------------------------------------------------------------------------
// SubStreamWorker

SubStreamWorker::SubStreamWorker(std::size_t capacity, Rng rng)
    : reservoir_(capacity, rng) {}

void SubStreamWorker::offer(const Item& item) { reservoir_.offer(item); }

void SubStreamWorker::rearm(std::size_t capacity, const Rng& rng) {
  reservoir_.rearm(capacity, rng);
}

void SubStreamWorker::collect_into(std::vector<Item>& out) {
  const auto& kept = reservoir_.contents();
  out.insert(out.end(), kept.begin(), kept.end());
  reservoir_.reset();
}

// ---------------------------------------------------------------------------
// WorkerGroup

WorkerGroup::WorkerGroup(std::size_t workers, std::size_t total_capacity,
                         Rng rng) {
  rearm(workers, total_capacity, rng);
}

void WorkerGroup::rearm(std::size_t workers, std::size_t total_capacity,
                        const Rng& rng) {
  if (workers == 0) workers = 1;
  // Clamp: never more workers than reservoir slots, so every active
  // worker holds >= 1 slot and a sub-stream with any capacity cannot
  // merge to c̃ = 0 while c > 0.
  active_ = std::max<std::size_t>(
      1, std::min(workers, std::max<std::size_t>(total_capacity, 1)));
  overflow_seen_.assign(workers, 0);
  next_shard_ = 0;

  const std::size_t base = total_capacity / active_;
  const std::size_t remainder = total_capacity % active_;

  // Worker 0 continues the exact stream WHSampler's single reservoir
  // would use; further workers reseed from values drawn off a copy of it
  // (cheap SplitMix expansion, independent streams).
  Rng stream = rng.split();
  Rng seeder = stream;
  for (std::size_t i = 0; i < active_; ++i) {
    const std::size_t cap = base + (i < remainder ? 1 : 0);
    const Rng worker_rng = i == 0 ? stream : Rng(seeder.next());
    if (i < workers_.size()) {
      workers_[i].rearm(cap, worker_rng);
    } else {
      workers_.emplace_back(cap, worker_rng);
    }
  }
}

void WorkerGroup::shard(std::span<const Item> items) {
  const std::size_t width = overflow_seen_.size();
  for (const Item& item : items) {
    if (next_shard_ < active_) {
      workers_[next_shard_].offer(item);
    } else {
      ++overflow_seen_[next_shard_];
    }
    if (++next_shard_ == width) next_shard_ = 0;
  }
}

WorkerGroup::MergeResult WorkerGroup::merge() {
  MergeResult result;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_; ++i) {
    result.total_count += workers_[i].local_count();
    kept += workers_[i].sample_size();
  }
  for (std::uint64_t& seen : overflow_seen_) {
    result.total_count += seen;
    seen = 0;
  }
  // Worker 0's reservoir is moved out wholesale (at one worker this is
  // exactly WHSampler's sample); workers beyond it are copied in so
  // their buffers persist.
  result.sample = workers_[0].drain();
  result.sample.reserve(kept);
  for (std::size_t i = 1; i < active_; ++i) {
    workers_[i].collect_into(result.sample);
  }
  if (result.total_count > kept && kept > 0) {
    result.weight_multiplier = static_cast<double>(result.total_count) /
                               static_cast<double>(kept);
  }
  next_shard_ = 0;
  return result;
}

// ---------------------------------------------------------------------------
// ParallelSampler

ParallelSampler::ParallelSampler(std::size_t workers, Rng rng)
    : rng_(rng),
      workers_(std::max<std::size_t>(workers, 1)),
      policy_(sampling::make_allocation_policy("equal")),
      group_(workers_, 0, rng) {}

void ParallelSampler::sample(const std::vector<Item>& items,
                             std::size_t sample_size, const WeightMap& w_in,
                             SampledBundle& out) {
  out.clear();
  if (items.empty()) return;

  // Line 5: stratify; the directory is ascending by id, the order
  // WHSampler visits strata in.
  strata_.assign(items);
  const std::vector<Stratum>& dir = strata_.strata();

  // Line 7: per-sub-stream reservoir sizes N_i.
  weights_.resize(dir.size());
  w_in.get_for_strata(dir, weights_.data());
  infos_.clear();
  for (std::size_t k = 0; k < dir.size(); ++k) {
    infos_.push_back(
        sampling::SubStreamInfo{dir[k].id, dir[k].len, 0.0, weights_[k]});
  }
  policy_->allocate(sample_size, infos_, sizes_);

  // Lines 8-19 per stratum: split N_i over the workers, deal the
  // stratum's items round-robin, merge and reweight (Eq. 8).
  for (std::size_t k = 0; k < dir.size(); ++k) {
    group_.rearm(workers_, sizes_[k], rng_);
    rng_.jump();
    const ItemSpan span = strata_.span(dir[k]);
    group_.shard({span.data(), span.size()});
    const WorkerGroup::MergeResult merged = group_.merge();
    out.sample.append_stratum(dir[k].id, merged.sample);
    out.w_out.set(dir[k].id, weights_[k] * merged.weight_multiplier);
  }
}

}  // namespace approxiot::core
