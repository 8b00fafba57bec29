// EdgeTree: the in-memory logical-tree pipeline (Fig. 1).
//
// Builds the paper's layered topology — leaf edge nodes fed by sources,
// optional intermediate layers, one root — and drives it interval by
// interval without any transport: each layer's (W^out, sample) pairs
// become the next layer's Ψ. This execution path is what the accuracy
// experiments (Figs. 5, 10, 11a) use; the latency/throughput experiments
// wrap the same nodes in netsim instead.
//
// Three engine kinds mirror the paper's three compared systems:
//   kApproxIoT — weighted hierarchical sampling at every node;
//   kSrs       — coin-flip simple random sampling at every node;
//   kNative    — no sampling anywhere (exact results).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/batch.hpp"
#include "core/control_plane.hpp"
#include "core/error.hpp"
#include "core/node.hpp"
#include "core/srs_node.hpp"

namespace approxiot::core {

class CheckpointWriter;
class CheckpointReader;
struct Checkpoint;

// kSnapshot is the related-work comparator (§VII: sensor-side "snapshot
// sampling" [38, 39]): forward whole intervals every 1/fraction ticks.
enum class EngineKind { kApproxIoT, kSrs, kNative, kSnapshot };

[[nodiscard]] const char* engine_kind_name(EngineKind kind) noexcept;

/// A uniform interface over the three node behaviours so the tree driver
/// does not care which system it is running.
class PipelineStage {
 public:
  virtual ~PipelineStage() = default;

  /// Runs one interval of Algorithm 2 over Ψ and writes the (W^out,
  /// sample) pairs for the parent into `out`, which the caller owns and
  /// passes in again every interval. Contract:
  ///   - `out` is overwritten: on return it holds exactly this interval's
  ///     pairs, in Ψ order, and nothing from earlier calls — not a stale
  ///     bundle, stratum, weight entry or epoch.
  ///   - Bundles already in `out` are refilled in place, reusing their
  ///     arenas, directories and weight tables; surplus ones are dropped.
  ///     A caller that keeps `out` (or recycles it, as the concurrent
  ///     runtime does with its channel messages) therefore allocates
  ///     nothing per interval once the buffers have grown.
  ///   - The output is bit-identical to sampling into a fresh vector.
  /// `out` must not share buffers with `psi`.
  virtual void process_interval(const std::vector<ItemBundle>& psi,
                                std::vector<SampledBundle>& out) = 0;
  [[nodiscard]] virtual const NodeMetrics& metrics() const = 0;
  /// Legacy synchronous re-tune; with a bound control plane the policy
  /// resolved at the next interval boundary wins.
  virtual void set_fraction(double fraction) = 0;
  /// Policy epoch the stage resolved for its most recent interval (0 for
  /// stages without a control plane, e.g. native pass-through).
  [[nodiscard]] virtual PolicyEpoch policy_epoch() const noexcept {
    return 0;
  }

  /// Serializes the stage's cross-interval sampling state (RNG streams,
  /// remembered weights, counters, resolved epoch) — everything needed
  /// for a restored stage to continue bit-identically. Each engine tags
  /// its payload; restore_state validates the tag, so checkpoints cannot
  /// cross engines. The default pair is the stateless pass-through
  /// (NativeStage): a tag and nothing else.
  virtual void save_state(CheckpointWriter& writer) const;
  virtual void restore_state(CheckpointReader& reader);
};

struct EdgeTreeConfig {
  /// Edge-layer widths from leaves towards the root, e.g. {4, 2} gives
  /// 4 leaf nodes -> 2 mid nodes -> 1 root (the paper's testbed shape).
  std::vector<std::size_t> layer_widths{4, 2};
  EngineKind engine{EngineKind::kApproxIoT};
  /// End-to-end target sampling fraction in (0,1]. Each sampling layer
  /// (edge layers + root) applies fraction^(1/num_sampling_layers) so the
  /// product matches the target, mirroring how the paper configures both
  /// systems to comparable fractions.
  double sampling_fraction{1.0};
  SimTime interval{SimTime::from_seconds(1.0)};
  std::string allocation_policy{"equal"};
  sampling::ReservoirAlgorithm reservoir_algorithm{
      sampling::ReservoirAlgorithm::kAlgorithmR};
  std::uint64_t rng_seed{42};
  /// Live control plane (§IV-B). Null -> budgets frozen at construction
  /// (the pre-control-plane behaviour). When set, every sampling stage is
  /// built with a PolicyHandle scoped for its layer, resolves its budget
  /// from the plane at interval boundaries, and stamps outputs with the
  /// resolved epoch. A plane whose epoch-0 policy matches this config
  /// (see make_control_plane) is behaviour-neutral until published to.
  std::shared_ptr<ControlPlane> control_plane{};
};

/// A ControlPlane whose epoch-0 policy mirrors `config`: resolving it
/// reproduces exactly the budgets the tree's stages are constructed with,
/// so binding it changes nothing until the first publish.
[[nodiscard]] std::shared_ptr<ControlPlane> make_control_plane(
    const EdgeTreeConfig& config);

/// fraction^(1/layers): per-layer fraction giving an end-to-end target.
[[nodiscard]] double per_layer_fraction(double end_to_end,
                                        std::size_t layers) noexcept;

/// Throws std::invalid_argument unless the topology is well-formed: at
/// least one edge layer, no zero widths, widths non-increasing towards
/// the root. Shared by every executor of the logical tree (EdgeTree, the
/// concurrent runtime) so they accept exactly the same configs.
void validate_edge_tree_config(const EdgeTreeConfig& config);

/// Parameters for constructing a single stage outside an EdgeTree (the
/// netsim wraps stages in simulated nodes instead of the in-memory tree).
struct StageConfig {
  EngineKind engine{EngineKind::kApproxIoT};
  NodeId id{};
  SimTime interval{SimTime::from_seconds(1.0)};
  /// Per-layer sampling fraction (not end-to-end).
  double fraction{1.0};
  std::string allocation_policy{"equal"};
  sampling::ReservoirAlgorithm reservoir_algorithm{
      sampling::ReservoirAlgorithm::kAlgorithmR};
  std::uint64_t rng_seed{42};
  /// Live control plane view for the stage (see NodeConfig::policy).
  /// Unbound -> the stage's `fraction` stays frozen.
  PolicyHandle policy{};
};

[[nodiscard]] std::unique_ptr<PipelineStage> make_pipeline_stage(
    const StageConfig& config);

/// The StageConfig an EdgeTree with `config` builds for node (layer,
/// index); `layer == config.layer_widths.size()` addresses the root.
/// Adapters that run the same logical tree on another substrate (the
/// concurrent runtime, netsim) use this so their stages — seeds included —
/// are bit-identical to the sequential tree's.
[[nodiscard]] StageConfig edge_tree_stage_config(const EdgeTreeConfig& config,
                                                std::size_t layer,
                                                std::size_t index);

class EdgeTree {
 public:
  explicit EdgeTree(EdgeTreeConfig config);

  /// Number of leaf nodes; sources should shard sub-streams across them.
  [[nodiscard]] std::size_t leaf_count() const noexcept;

  /// Pushes one interval of source data through every layer and into the
  /// root's Θ. `items_per_leaf` must have exactly leaf_count() entries.
  void tick(const std::vector<std::vector<Item>>& items_per_leaf);

  /// Runs the query over the window accumulated so far and clears Θ.
  ApproxResult close_window(double confidence = stats::kConfidence95);

  /// Query without clearing (inspection mid-window).
  [[nodiscard]] ApproxResult run_query(
      double confidence = stats::kConfidence95) const;

  /// Re-tunes every stage's sampling fraction (adaptive feedback). With a
  /// control plane this publishes a new policy epoch — stages pick it up
  /// at their next interval boundary; without one it falls back to the
  /// legacy synchronous per-stage set_fraction loop.
  void set_sampling_fraction(double end_to_end);
  [[nodiscard]] double sampling_fraction() const noexcept {
    return config_.sampling_fraction;
  }

  /// The live control plane (null when the tree runs frozen budgets).
  [[nodiscard]] const std::shared_ptr<ControlPlane>& control_plane()
      const noexcept {
    return config_.control_plane;
  }
  /// Current policy epoch (0 without a control plane).
  [[nodiscard]] PolicyEpoch policy_epoch() const noexcept {
    return config_.control_plane != nullptr ? config_.control_plane->epoch()
                                            : 0;
  }

  /// Aggregate metrics: items entering the leaves, items reaching the
  /// root, and per-layer forwarded counts (for the bandwidth bench).
  struct TreeMetrics {
    std::uint64_t items_ingested{0};
    std::uint64_t items_at_root{0};
    std::vector<std::uint64_t> items_forwarded_per_layer;
  };
  [[nodiscard]] TreeMetrics metrics() const;

  [[nodiscard]] const ThetaStore& theta() const;
  [[nodiscard]] EngineKind engine() const noexcept { return config_.engine; }

  // --- fault tolerance -----------------------------------------------------

  /// Snapshots every stage's sampling state, Θ, the policy epoch and the
  /// tree counters. Restoring the snapshot into a tree built from the
  /// same config and feeding it the remaining input reproduces the
  /// uninterrupted run bit for bit. The byte format is shared with
  /// ConcurrentEdgeTree, so snapshots are interchangeable between the
  /// sequential and concurrent executions of the same logical tree.
  [[nodiscard]] Checkpoint checkpoint() const;
  /// Throws CheckpointError on a topology/engine mismatch or a malformed
  /// snapshot; the tree is unchanged on throw only for header mismatches
  /// (a mid-payload failure leaves it partially restored — rebuild it).
  void restore(const Checkpoint& checkpoint);

  /// Detaches the subtree whose root is node (layer, index): from the
  /// next tick on, its inputs are swallowed and counted as lost weight
  /// instead of sampled and forwarded. Parents see an empty contribution
  /// (the Fig. 3 carry-over rule keeps their weights consistent), so the
  /// surviving sub-streams' estimates stay exact — see
  /// ApproxResult::lost_weight for the math. `layer ==
  /// layer_widths.size()` addresses the root.
  void detach_subtree(std::size_t layer, std::size_t index);
  void reattach_subtree(std::size_t layer, std::size_t index);
  [[nodiscard]] bool subtree_detached(std::size_t layer,
                                      std::size_t index) const;
  /// Lost weight accumulated in the current window (reset by
  /// close_window, which also reports it in the result).
  [[nodiscard]] double lost_weight() const noexcept { return lost_weight_; }

 private:
  std::unique_ptr<PipelineStage> make_stage(std::size_t layer,
                                            std::size_t index);
  /// &detached flag for (layer, index); throws on a bad address.
  [[nodiscard]] std::uint8_t& detached_flag(std::size_t layer,
                                            std::size_t index);
  /// Counts `bundle`'s items into the lost-weight accumulators at the
  /// weights they carry (Σ |I|·W == the original count, by Eq. 8).
  void swallow_lost(const ItemBundle& bundle);

  EdgeTreeConfig config_;
  double per_layer_fraction_{1.0};
  // stages_[layer][index]; layer 0 = leaves.
  std::vector<std::vector<std::unique_ptr<PipelineStage>>> stages_;
  std::unique_ptr<PipelineStage> root_stage_;
  ThetaStore theta_;
  std::uint64_t items_ingested_{0};
  std::uint64_t items_at_root_{0};
  // detached_[layer][index]; the extra last layer is the root. uint8_t,
  // not bool: vector<bool> has no addressable elements.
  std::vector<std::vector<std::uint8_t>> detached_;
  double lost_weight_{0.0};
  std::uint64_t lost_items_{0};
  /// Any detach active at any point during the current window.
  bool window_degraded_{false};
  /// Output of the stage tick() is running, reused across stages and
  /// intervals.
  std::vector<SampledBundle> outputs_;
};

}  // namespace approxiot::core
