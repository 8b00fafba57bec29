// Snapshot-sampling baseline.
//
// The paper's related work (§VII) contrasts ApproxIoT with sensor-side
// "snapshot sampling" schemes [38, 39] that "take the input data stream
// every certain time interval": the node forwards *all* items of every
// k-th interval and drops the intervals in between. The kept snapshots
// are weighted by k (each snapshot stands for k intervals), which makes
// SUM estimates unbiased when the stream is stationary — but strongly
// biased the moment arrival rates or values drift between snapshots,
// which is exactly the weakness item-level sampling avoids. Implemented
// as a third engine so the ablation bench can quantify that gap.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/batch.hpp"
#include "core/control_plane.hpp"
#include "core/node.hpp"

namespace approxiot::core {

struct SnapshotNodeConfig {
  NodeId id{};
  /// Keep one interval out of `period` (period == 1 keeps everything).
  /// Matches a sampling fraction of 1/period.
  std::uint32_t period{10};
  /// Which interval within the period is kept (0 <= phase < period).
  std::uint32_t phase{0};
  /// Live control plane view (§IV-B): when bound, the decimation period
  /// tracks the resolved fraction at interval boundaries (kEndToEnd at
  /// leaves, kHold elsewhere so decimation never compounds) and outputs
  /// carry the resolved epoch.
  PolicyHandle policy{};
};

class SnapshotNode {
 public:
  explicit SnapshotNode(SnapshotNodeConfig config);

  /// Keeps the whole interval when (interval_index % period) == phase,
  /// scaling weights by `period`; drops everything otherwise. Overwrites
  /// `out` (buffers reused; see SamplingNode::process_interval).
  void process_interval(const std::vector<ItemBundle>& psi,
                        std::vector<SampledBundle>& out);

  /// Sets the period so the long-run kept fraction approximates
  /// `fraction` (period = round(1/fraction), at least 1).
  void set_fraction(double fraction);

  [[nodiscard]] std::uint32_t period() const noexcept {
    return config_.period;
  }
  [[nodiscard]] NodeId id() const noexcept { return config_.id; }
  [[nodiscard]] const NodeMetrics& metrics() const noexcept {
    return metrics_;
  }

  /// Policy epoch resolved for the most recent interval (0 when unbound).
  [[nodiscard]] PolicyEpoch policy_epoch() const noexcept {
    return policy_epoch_;
  }

  /// Checkpoint hooks: period, phase, interval counter, resolved epoch —
  /// the full decimation state (no RNG; the scheme is deterministic).
  void save_state(CheckpointWriter& writer) const;
  void restore_state(CheckpointReader& reader);

 private:
  SnapshotNodeConfig config_;
  std::uint64_t interval_index_{0};
  PolicyEpoch policy_epoch_{0};
  NodeMetrics metrics_;
  StratifyScratch stratify_scratch_;
};

}  // namespace approxiot::core
