#include "core/parallel.hpp"

namespace approxiot::core {

ParallelSampler::ParallelSampler(std::size_t threads, Rng rng) {
  PooledSamplingExecutor::Options options;
  options.workers_per_lane = threads == 0 ? 1 : threads;
  executor_ = std::make_shared<PooledSamplingExecutor>(options);
  lane_ = executor_->create_lane(rng, WHSampConfig{});
}

void ParallelSampler::sample(const std::vector<Item>& items,
                             std::size_t sample_size, const WeightMap& w_in,
                             SampledBundle& out) {
  lane_->sample(items, sample_size, w_in, out);
}

}  // namespace approxiot::core
