// Distributed execution within a node (§III-E), as a single-threaded model.
//
// The paper argues that a node's reservoir for one sub-stream can be
// split over w workers that never synchronise while items flow: each
// worker keeps its own reservoir and arrival counter, and the merged
// output is weighted from the summed counters (Eq. 8):
//     c_i = Σ_w c_{i,w},   c̃_i = Σ_w |reservoir_w|,
//     W^out · c̃_i = W^in · c_i.
// That is a claim about accuracy, so one thread is enough to check it:
//
//   SubStreamWorker — one worker's reservoir plus its arrival counter.
//   WorkerGroup     — the shard/offer/merge protocol for one sub-stream.
//   ParallelSampler — Algorithm 1 with every sub-stream's reservoir split
//                     over a WorkerGroup; at one worker it is
//                     bit-identical to WHSampler.
//
// Tree nodes sample with WHSampler directly. Running the shards on
// threads lost to the single reservoir on every measured tree, so this
// model has no executor; the ablation bench and the §III-E tests use it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/batch.hpp"
#include "core/stratified.hpp"
#include "sampling/allocation.hpp"
#include "sampling/reservoir.hpp"

namespace approxiot::core {

/// One worker's state for one sub-stream: an Algorithm R reservoir of at
/// most N_i/w items plus the local arrival counter.
class SubStreamWorker {
 public:
  SubStreamWorker(std::size_t capacity, Rng rng);

  void offer(const Item& item);

  /// Re-seeds and re-sizes for a new interval, keeping the reservoir's
  /// heap buffer.
  void rearm(std::size_t capacity, const Rng& rng);

  [[nodiscard]] std::uint64_t local_count() const noexcept {
    return reservoir_.seen();
  }
  [[nodiscard]] std::size_t sample_size() const noexcept {
    return reservoir_.size();
  }
  /// Appends the kept items to `out` and resets counters; the internal
  /// buffer survives for the next interval.
  void collect_into(std::vector<Item>& out);
  [[nodiscard]] std::vector<Item> drain() { return reservoir_.drain(); }

 private:
  sampling::ReservoirSampler<Item> reservoir_;
};

/// The shard/offer/merge protocol for one sub-stream. Items are dealt
/// round-robin over the requested worker count w by their position in
/// the sub-stream. The number of active workers is clamped to the total
/// capacity (a worker with a zero-slot reservoir could keep nothing,
/// risking a merged c̃ of 0 for a sub-stream that did receive items);
/// shards at or beyond the clamped count only count their arrivals, so
/// c_i stays exact.
class WorkerGroup {
 public:
  /// `total_capacity` is N_i; each active worker gets floor(N_i/w) with
  /// the remainder spread over the first workers so Σ capacities == N_i.
  WorkerGroup(std::size_t workers, std::size_t total_capacity, Rng rng);

  /// Re-splits capacity and re-seeds worker RNG streams for a new
  /// interval. Worker 0's stream is `rng.split()` — exactly the stream
  /// WHSampler hands its single reservoir, which is what makes a
  /// one-worker group bit-identical to the sequential path; workers
  /// beyond 0 reseed from values drawn off a copy of that stream.
  /// Reservoir buffers are kept.
  void rearm(std::size_t workers, std::size_t total_capacity, const Rng& rng);

  /// Offers the next items of the sub-stream: the k-th item since the
  /// last rearm or merge goes to shard k mod w.
  void shard(std::span<const Item> items);

  struct MergeResult {
    std::vector<Item> sample;
    std::uint64_t total_count{0};   // c_i
    double weight_multiplier{1.0};  // c_i / c̃_i when overflowed, else 1
  };

  /// Merges worker reservoirs in worker order and resets counters for
  /// the next interval.
  [[nodiscard]] MergeResult merge();

  /// Active (capacity-clamped) worker count.
  [[nodiscard]] std::size_t worker_count() const noexcept { return active_; }
  /// Shards items are dealt over (the requested worker count).
  [[nodiscard]] std::size_t shard_width() const noexcept {
    return overflow_seen_.size();
  }

 private:
  std::vector<SubStreamWorker> workers_;  // storage; first active_ live
  /// Arrivals routed to each shard at or beyond active_.
  std::vector<std::uint64_t> overflow_seen_;
  std::size_t active_{0};
  std::size_t next_shard_{0};
};

/// Multi-worker WHSamp over one interval: stratifies items, allocates
/// each sub-stream's reservoir size, splits it over a WorkerGroup of
/// `workers` shards and reweights by Eq. 8. Semantics match
/// WHSampler::sample with equal allocation; at one worker the output is
/// bit-identical to it, call after call.
class ParallelSampler {
 public:
  ParallelSampler(std::size_t workers, Rng rng);

  /// Overwrites `out`, reusing its buffers (see WHSampler::sample).
  void sample(const std::vector<Item>& items, std::size_t sample_size,
              const WeightMap& w_in, SampledBundle& out);

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

 private:
  /// Stratum k (ascending id) rearms the group from J^k of the entry
  /// state; its worker 0 therefore draws from J^(k+2), WHSampler's
  /// stream for the same stratum.
  Rng rng_;
  std::size_t workers_;
  std::unique_ptr<sampling::AllocationPolicy> policy_;
  WorkerGroup group_;
  StratifiedBatch strata_;
  std::vector<sampling::SubStreamInfo> infos_;
  std::vector<double> weights_;
  std::vector<std::size_t> sizes_;
};

}  // namespace approxiot::core
