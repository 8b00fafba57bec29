// Distributed execution within a node (§III-E) — convenience front-end.
//
// The shard/offer/merge protocol itself (SubStreamWorker, WorkerGroup)
// and the execution substrate live in core/executor.hpp; this header
// keeps the standalone ParallelSampler used by the ablation bench and
// the §III-E unit tests. It owns a private PooledSamplingExecutor, so
// its worker threads are created once at construction and reused every
// call — no thread spawn/join on the sampling hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/batch.hpp"
#include "core/executor.hpp"

namespace approxiot::core {

/// Multi-worker WHSamp over one interval: stratifies items, shards each
/// sub-stream's reservoir across `threads` persistent workers with zero
/// cross-thread coordination, then merges under the Eq. 8 weight rule.
/// Semantics match WHSampler::sample with equal allocation; at 1 worker
/// the output is bit-identical to it.
class ParallelSampler {
 public:
  ParallelSampler(std::size_t threads, Rng rng);

  /// Overwrites `out`, reusing its buffers (see WHSampler::sample).
  void sample(const std::vector<Item>& items, std::size_t sample_size,
              const WeightMap& w_in, SampledBundle& out);

  [[nodiscard]] std::size_t threads() const noexcept {
    return executor_->workers_per_lane();
  }

 private:
  std::shared_ptr<SamplingExecutor> executor_;
  std::unique_ptr<SamplingLane> lane_;
};

}  // namespace approxiot::core
