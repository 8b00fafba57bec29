// SRS baseline node (§IV-B module II): keeps each arriving item with an
// independent coin flip at probability p (the node's sampling fraction),
// ignoring sub-stream boundaries. The Horvitz–Thompson weight of a kept
// item is 1/p; across layers, weights multiply exactly like ApproxIoT's,
// so the same ThetaStore/estimator machinery evaluates both systems.
//
// Note the crucial difference the paper measures: SRS applies ONE
// probability to the whole stream, so a rare-but-valuable sub-stream can
// end up with no surviving items at all (Fig. 10c), while ApproxIoT's
// stratification guarantees each sub-stream a reservoir share.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/batch.hpp"
#include "core/control_plane.hpp"
#include "core/node.hpp"
#include "sampling/bernoulli.hpp"

namespace approxiot::core {

struct SrsNodeConfig {
  NodeId id{};
  double probability{1.0};
  std::uint64_t rng_seed{0xc01fc01fULL};
  /// Live control plane view (§IV-B): when bound, the node's keep
  /// probability is resolved through this handle at interval boundaries
  /// (scoped per layer like the WHS fraction) and outputs are stamped
  /// with the resolved epoch. Unbound keeps `probability` frozen.
  PolicyHandle policy{};
};

class SrsNode {
 public:
  explicit SrsNode(SrsNodeConfig config);

  /// Filters one interval's pairs into `out` (overwritten, buffers
  /// reused; see SamplingNode::process_interval). Item weights in the
  /// output are the input weights scaled by 1/p (Horvitz–Thompson).
  void process_interval(const std::vector<ItemBundle>& psi,
                        std::vector<SampledBundle>& out);

  void set_probability(double p);
  [[nodiscard]] double probability() const noexcept;

  [[nodiscard]] NodeId id() const noexcept { return config_.id; }
  [[nodiscard]] const NodeMetrics& metrics() const noexcept { return metrics_; }
  void reset_metrics() noexcept { metrics_ = NodeMetrics{}; }

  /// Policy epoch resolved for the most recent interval (0 when unbound).
  [[nodiscard]] PolicyEpoch policy_epoch() const noexcept {
    return policy_epoch_;
  }

  /// Checkpoint hooks: probability, coin-flip RNG stream, seen/kept
  /// counters, remembered weights, resolved epoch.
  void save_state(CheckpointWriter& writer) const;
  void restore_state(CheckpointReader& reader);

 private:
  SrsNodeConfig config_;
  PolicyEpoch policy_epoch_{0};
  sampling::BernoulliSampler sampler_;
  WeightMap remembered_weights_;
  /// Reused buffers: the coin-flip survivors of one bundle (stratified
  /// in bulk afterwards — counting build, no per-item maps) and the
  /// stratification working state, so output bundles stay pure data.
  std::vector<Item> kept_scratch_;
  StratifyScratch stratify_scratch_;
  NodeMetrics metrics_;
};

/// SRS root: filter + accumulate Θ + query, mirroring RootNode.
class SrsRootNode {
 public:
  explicit SrsRootNode(SrsNodeConfig config);

  void ingest_interval(const std::vector<ItemBundle>& psi);
  [[nodiscard]] ApproxResult run_query(
      double confidence = stats::kConfidence95) const;
  ApproxResult close_window(double confidence = stats::kConfidence95);

  [[nodiscard]] const ThetaStore& theta() const noexcept { return theta_; }
  [[nodiscard]] const NodeMetrics& metrics() const noexcept {
    return node_.metrics();
  }

 private:
  SrsNode node_;
  ThetaStore theta_;
  std::vector<SampledBundle> outputs_;
};

}  // namespace approxiot::core
