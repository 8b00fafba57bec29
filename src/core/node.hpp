// Node roles in the logical tree (Algorithm 2).
//
// SamplingNode: per interval, derives its reservoir budget from the cost
// function, consumes the interval's (W^in, items) pairs, runs WHSamp on
// each, and emits (W^out, sample) pairs for the parent. It remembers the
// last known weight of every sub-stream across intervals to implement the
// Fig. 3 rule for weight/items arriving in different intervals.
//
// RootNode: same sampling step, but accumulates the pairs into Θ and, when
// the window closes, runs the query with error estimation.
//
// Both are transport-agnostic: callers (the sequential EdgeTree, the
// concurrent runtime, or netsim) hand bundles in and receive bundles out.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "core/batch.hpp"
#include "core/control_plane.hpp"
#include "core/cost_function.hpp"
#include "core/error.hpp"
#include "core/theta_store.hpp"
#include "core/whsamp.hpp"

namespace approxiot::core {

class CheckpointWriter;
class CheckpointReader;

struct NodeConfig {
  NodeId id{};
  SimTime interval{SimTime::from_seconds(1.0)};
  ResourceBudget budget{};
  std::string cost_function{"fraction"};
  WHSampConfig whsamp{};
  std::uint64_t rng_seed{0x5eed5eedULL};
  /// Live control plane view (§IV-B). When bound, the node resolves its
  /// budget through this handle at every interval boundary — the policy
  /// wins over the frozen `budget` above — and stamps its outputs with
  /// the resolved epoch. Unbound (default) keeps the frozen budget.
  PolicyHandle policy{};
};

/// Counters a node exposes for the throughput/bandwidth benches.
struct NodeMetrics {
  std::uint64_t items_in{0};
  std::uint64_t items_out{0};
  std::uint64_t intervals{0};

  [[nodiscard]] double forward_ratio() const noexcept {
    return items_in > 0
               ? static_cast<double>(items_out) / static_cast<double>(items_in)
               : 1.0;
  }
};

class SamplingNode {
 public:
  explicit SamplingNode(NodeConfig config);

  /// Processes one interval's worth of input pairs (the paper's Ψ) and
  /// overwrites `out` with the sampled pairs destined for the parent node
  /// (one per non-empty input pair). Bundles already in `out` are sampled
  /// into again, buffers and all; extra ones are dropped.
  void process_interval(const std::vector<ItemBundle>& psi,
                        std::vector<SampledBundle>& out);

  /// Updates the budget between intervals (legacy synchronous feedback,
  /// §IV-B). With a bound policy handle the control plane wins: the next
  /// interval's resolve overwrites whatever is set here.
  void set_budget(const ResourceBudget& budget) { config_.budget = budget; }
  [[nodiscard]] const ResourceBudget& budget() const noexcept {
    return config_.budget;
  }

  /// Policy epoch resolved for the most recent interval (0 before the
  /// first interval and whenever no control plane is bound).
  [[nodiscard]] PolicyEpoch policy_epoch() const noexcept {
    return policy_epoch_;
  }

  [[nodiscard]] NodeId id() const noexcept { return config_.id; }
  [[nodiscard]] SimTime interval() const noexcept { return config_.interval; }
  [[nodiscard]] const NodeMetrics& metrics() const noexcept { return metrics_; }
  void reset_metrics() noexcept { metrics_ = NodeMetrics{}; }

  /// Last known weight per sub-stream (exposed for tests of the Fig. 3
  /// carry-over rule).
  [[nodiscard]] const WeightMap& remembered_weights() const noexcept {
    return remembered_weights_;
  }

  /// Checkpoint hooks: serialize/restore every piece of cross-interval
  /// state (budget, cost-function EWMA, volume history, resolved epoch,
  /// remembered weights, the sampler's RNG stream). A restored node's next
  /// process_interval is bit-identical to the uninterrupted run's.
  void save_state(CheckpointWriter& writer) const;
  void restore_state(CheckpointReader& reader);

 private:
  NodeConfig config_;
  WHSampler sampler_;
  std::unique_ptr<CostFunction> cost_function_;
  WeightMap remembered_weights_;
  /// Reused per-bundle stratification arena (zero steady-state allocs).
  StratifiedBatch strata_scratch_;
  std::uint64_t last_interval_items_{0};
  PolicyEpoch policy_epoch_{0};
  NodeMetrics metrics_;
};

/// Root node: samples, accumulates Θ across the window, answers queries.
class RootNode {
 public:
  explicit RootNode(NodeConfig config);

  /// Consumes one interval's pairs into Θ (after local sampling).
  void ingest_interval(const std::vector<ItemBundle>& psi);

  /// Runs the query over the current Θ: `result ± error` (Algorithm 2
  /// lines 21-25). Does not clear Θ.
  [[nodiscard]] ApproxResult run_query(
      double confidence = stats::kConfidence95) const;

  /// Closes the window: returns the query result and clears Θ.
  ApproxResult close_window(double confidence = stats::kConfidence95);

  [[nodiscard]] const ThetaStore& theta() const noexcept { return theta_; }
  [[nodiscard]] const NodeMetrics& metrics() const noexcept {
    return node_.metrics();
  }
  [[nodiscard]] NodeId id() const noexcept { return node_.id(); }
  void set_budget(const ResourceBudget& budget) { node_.set_budget(budget); }
  [[nodiscard]] PolicyEpoch policy_epoch() const noexcept {
    return node_.policy_epoch();
  }

 private:
  SamplingNode node_;
  ThetaStore theta_;
  std::vector<SampledBundle> outputs_;
};

}  // namespace approxiot::core
