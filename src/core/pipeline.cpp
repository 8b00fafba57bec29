#include "core/pipeline.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/snapshot_node.hpp"

namespace approxiot::core {

namespace {

/// Stage payload tags (part of the checkpoint format): restore_state
/// validates the tag before reading, so a snapshot can never be decoded
/// by the wrong engine's stage.
constexpr std::uint64_t kStageTagNative = 0;
constexpr std::uint64_t kStageTagWhs = 1;
constexpr std::uint64_t kStageTagSrs = 2;
constexpr std::uint64_t kStageTagSnapshot = 3;

void check_stage_tag(CheckpointReader& reader, std::uint64_t expected) {
  const std::uint64_t tag = reader.get_u64();
  if (tag != expected) {
    throw CheckpointError("checkpoint: stage engine mismatch (payload tag " +
                          std::to_string(tag) + ", stage expects " +
                          std::to_string(expected) + ")");
  }
}

}  // namespace

// Default: the stateless pass-through (NativeStage) — a tag and nothing
// else, so even "no state" restores are format-checked.
void PipelineStage::save_state(CheckpointWriter& writer) const {
  writer.put_u64(kStageTagNative);
}

void PipelineStage::restore_state(CheckpointReader& reader) {
  check_stage_tag(reader, kStageTagNative);
}

const char* engine_kind_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kApproxIoT:
      return "ApproxIoT";
    case EngineKind::kSrs:
      return "SRS";
    case EngineKind::kNative:
      return "Native";
    case EngineKind::kSnapshot:
      return "Snapshot";
  }
  return "?";
}

double per_layer_fraction(double end_to_end, std::size_t layers) noexcept {
  if (layers == 0) return 1.0;
  if (end_to_end <= 0.0) return 0.0;
  if (end_to_end >= 1.0) return 1.0;
  return std::pow(end_to_end, 1.0 / static_cast<double>(layers));
}

namespace {

/// ApproxIoT stage: wraps SamplingNode.
class WhsStage final : public PipelineStage {
 public:
  explicit WhsStage(NodeConfig config) : node_(std::move(config)) {}

  void process_interval(const std::vector<ItemBundle>& psi,
                        std::vector<SampledBundle>& out) override {
    node_.process_interval(psi, out);
  }

  const NodeMetrics& metrics() const override { return node_.metrics(); }

  void set_fraction(double fraction) override {
    ResourceBudget b = node_.budget();
    b.sampling_fraction = fraction;
    node_.set_budget(b);
  }

  PolicyEpoch policy_epoch() const noexcept override {
    return node_.policy_epoch();
  }

  void save_state(CheckpointWriter& writer) const override {
    writer.put_u64(kStageTagWhs);
    node_.save_state(writer);
  }
  void restore_state(CheckpointReader& reader) override {
    check_stage_tag(reader, kStageTagWhs);
    node_.restore_state(reader);
  }

 private:
  SamplingNode node_;
};

/// SRS stage: wraps SrsNode.
class SrsStage final : public PipelineStage {
 public:
  explicit SrsStage(SrsNodeConfig config) : node_(std::move(config)) {}

  void process_interval(const std::vector<ItemBundle>& psi,
                        std::vector<SampledBundle>& out) override {
    node_.process_interval(psi, out);
  }

  const NodeMetrics& metrics() const override { return node_.metrics(); }

  void set_fraction(double fraction) override {
    node_.set_probability(fraction);
  }

  PolicyEpoch policy_epoch() const noexcept override {
    return node_.policy_epoch();
  }

  void save_state(CheckpointWriter& writer) const override {
    writer.put_u64(kStageTagSrs);
    node_.save_state(writer);
  }
  void restore_state(CheckpointReader& reader) override {
    check_stage_tag(reader, kStageTagSrs);
    node_.restore_state(reader);
  }

 private:
  SrsNode node_;
};

/// Snapshot stage: wraps SnapshotNode (whole-interval decimation).
class SnapshotStage final : public PipelineStage {
 public:
  explicit SnapshotStage(SnapshotNodeConfig config)
      : node_(std::move(config)) {}

  void process_interval(const std::vector<ItemBundle>& psi,
                        std::vector<SampledBundle>& out) override {
    node_.process_interval(psi, out);
  }

  const NodeMetrics& metrics() const override { return node_.metrics(); }

  void set_fraction(double fraction) override { node_.set_fraction(fraction); }

  PolicyEpoch policy_epoch() const noexcept override {
    return node_.policy_epoch();
  }

  void save_state(CheckpointWriter& writer) const override {
    writer.put_u64(kStageTagSnapshot);
    node_.save_state(writer);
  }
  void restore_state(CheckpointReader& reader) override {
    check_stage_tag(reader, kStageTagSnapshot);
    node_.restore_state(reader);
  }

 private:
  SnapshotNode node_;
};

/// Native stage: forwards everything untouched (weight stays 1).
class NativeStage final : public PipelineStage {
 public:
  void process_interval(const std::vector<ItemBundle>& psi,
                        std::vector<SampledBundle>& out) override {
    out.reserve(psi.size());
    std::size_t produced = 0;
    for (const ItemBundle& bundle : psi) {
      if (bundle.items.empty()) continue;
      metrics_.items_in += bundle.items.size();
      SampledBundle& sampled = output_slot(out, produced++);
      sampled.sample.assign(bundle.items, stratify_scratch_);
      sampled.w_out.clear();
      sampled.policy_epoch = 0;
      for (const Stratum& s : sampled.sample.strata()) {
        sampled.w_out.set(s.id, bundle.w_in.get(s.id));
      }
      metrics_.items_out += sampled.item_count();
    }
    out.resize(produced);
    ++metrics_.intervals;
  }

  const NodeMetrics& metrics() const override { return metrics_; }
  void set_fraction(double /*fraction*/) override {}

 private:
  NodeMetrics metrics_;
  StratifyScratch stratify_scratch_;
};

}  // namespace

std::unique_ptr<PipelineStage> make_pipeline_stage(const StageConfig& config) {
  switch (config.engine) {
    case EngineKind::kApproxIoT: {
      NodeConfig nc;
      nc.id = config.id;
      nc.interval = config.interval;
      nc.budget.sampling_fraction = config.fraction;
      nc.cost_function = "fraction";
      nc.whsamp.allocation_policy = config.allocation_policy;
      nc.whsamp.reservoir_algorithm = config.reservoir_algorithm;
      nc.rng_seed = config.rng_seed;
      nc.policy = config.policy;
      return std::make_unique<WhsStage>(std::move(nc));
    }
    case EngineKind::kSrs: {
      SrsNodeConfig sc;
      sc.id = config.id;
      sc.probability = config.fraction;
      sc.rng_seed = config.rng_seed;
      sc.policy = config.policy;
      return std::make_unique<SrsStage>(std::move(sc));
    }
    case EngineKind::kNative:
      // Native forwards everything untouched — there is no budget for a
      // policy to steer, so the handle stays unbound (epoch 0 outputs).
      return std::make_unique<NativeStage>();
    case EngineKind::kSnapshot: {
      SnapshotNodeConfig sc;
      sc.id = config.id;
      sc.period = 1;
      sc.policy = config.policy;
      auto out = std::make_unique<SnapshotStage>(std::move(sc));
      out->set_fraction(config.fraction);
      return out;
    }
  }
  throw std::logic_error("unreachable engine kind");
}

std::shared_ptr<ControlPlane> make_control_plane(
    const EdgeTreeConfig& config) {
  SamplingPolicy initial;
  initial.budget.sampling_fraction = config.sampling_fraction;
  initial.whsamp.allocation_policy = config.allocation_policy;
  initial.whsamp.reservoir_algorithm = config.reservoir_algorithm;
  return std::make_shared<ControlPlane>(std::move(initial));
}

/// PolicyScope for node (layer, …) of a tree with `config`: how that
/// stage projects the policy's end-to-end fraction onto its local budget.
static PolicyScope edge_tree_policy_scope(const EdgeTreeConfig& config,
                                          std::size_t layer) {
  PolicyScope scope;
  if (config.engine == EngineKind::kSnapshot) {
    // Decimation happens once, at the leaves; other layers pass through
    // and must keep doing so whatever the policy says.
    scope.rule = layer == 0 ? PolicyScope::Rule::kEndToEnd
                            : PolicyScope::Rule::kHold;
  } else {
    scope.rule = PolicyScope::Rule::kPerLayer;
    scope.sampling_layers = config.layer_widths.size() + 1;
  }
  return scope;
}

StageConfig edge_tree_stage_config(const EdgeTreeConfig& config,
                                   std::size_t layer, std::size_t index) {
  // Sampling layers = all edge layers + the root; snapshot decimates only
  // at the leaves (see the EdgeTree constructor comment).
  const std::size_t sampling_layers = config.layer_widths.size() + 1;
  const double plf =
      per_layer_fraction(config.sampling_fraction, sampling_layers);
  const bool snapshot = config.engine == EngineKind::kSnapshot;

  StageConfig sc;
  sc.engine = config.engine;
  sc.id = NodeId{(static_cast<std::uint64_t>(layer) << 32) | index};
  sc.interval = config.interval;
  sc.fraction =
      snapshot ? (layer == 0 ? config.sampling_fraction : 1.0) : plf;
  sc.allocation_policy = config.allocation_policy;
  sc.reservoir_algorithm = config.reservoir_algorithm;
  sc.rng_seed = config.rng_seed * 0x9e3779b97f4a7c15ULL + sc.id.value() + 1;
  if (config.control_plane != nullptr &&
      config.engine != EngineKind::kNative) {
    sc.policy = PolicyHandle(config.control_plane,
                             edge_tree_policy_scope(config, layer));
  }
  return sc;
}

std::unique_ptr<PipelineStage> EdgeTree::make_stage(std::size_t layer,
                                                    std::size_t index) {
  return make_pipeline_stage(edge_tree_stage_config(config_, layer, index));
}

void validate_edge_tree_config(const EdgeTreeConfig& config) {
  if (config.layer_widths.empty()) {
    throw std::invalid_argument("edge tree needs at least one edge layer");
  }
  for (std::size_t w : config.layer_widths) {
    if (w == 0) throw std::invalid_argument("layer width must be > 0");
  }
  for (std::size_t i = 1; i < config.layer_widths.size(); ++i) {
    if (config.layer_widths[i] > config.layer_widths[i - 1]) {
      throw std::invalid_argument(
          "layer widths must not grow towards the root");
    }
  }
}

EdgeTree::EdgeTree(EdgeTreeConfig config) : config_(std::move(config)) {
  validate_edge_tree_config(config_);

  // Sampling layers = all edge layers + the root. Snapshot sampling is a
  // sensor-side scheme (related work [38, 39]): it decimates whole
  // intervals once, at the leaves, and passes through elsewhere —
  // decimating at every layer would compound the period. The per-stage
  // fractions live in edge_tree_stage_config so runtime adapters build
  // identical stages.
  const std::size_t sampling_layers = config_.layer_widths.size() + 1;
  per_layer_fraction_ =
      per_layer_fraction(config_.sampling_fraction, sampling_layers);

  stages_.resize(config_.layer_widths.size());
  for (std::size_t layer = 0; layer < config_.layer_widths.size(); ++layer) {
    for (std::size_t i = 0; i < config_.layer_widths[layer]; ++i) {
      stages_[layer].push_back(make_stage(layer, i));
    }
  }
  root_stage_ = make_stage(stages_.size(), 0);

  detached_.resize(config_.layer_widths.size() + 1);
  for (std::size_t layer = 0; layer < config_.layer_widths.size(); ++layer) {
    detached_[layer].assign(config_.layer_widths[layer], 0);
  }
  detached_.back().assign(1, 0);  // the root
}

std::size_t EdgeTree::leaf_count() const noexcept {
  return config_.layer_widths.front();
}

void EdgeTree::tick(const std::vector<std::vector<Item>>& items_per_leaf) {
  if (items_per_leaf.size() != leaf_count()) {
    throw std::invalid_argument("tick() expects one item vector per leaf");
  }

  // Ψ for the current layer, indexed by node.
  std::vector<std::vector<ItemBundle>> psi(leaf_count());
  for (std::size_t i = 0; i < items_per_leaf.size(); ++i) {
    items_ingested_ += items_per_leaf[i].size();
    if (items_per_leaf[i].empty()) continue;
    ItemBundle bundle;
    bundle.items = items_per_leaf[i];
    psi[i].push_back(std::move(bundle));
  }

  for (std::size_t layer = 0; layer < stages_.size(); ++layer) {
    const std::size_t next_width = layer + 1 < stages_.size()
                                       ? config_.layer_widths[layer + 1]
                                       : 1;
    std::vector<std::vector<ItemBundle>> next_psi(next_width);
    for (std::size_t i = 0; i < stages_[layer].size(); ++i) {
      if (detached_[layer][i] != 0) {
        // Dead node: swallow its inputs into the lost-weight accounting
        // and emit nothing. The parent sees an empty contribution — by
        // the Fig. 3 carry-over rule its weights stay consistent, so the
        // surviving sub-streams' estimates remain exact (Eq. 8).
        window_degraded_ = true;
        for (const ItemBundle& bundle : psi[i]) swallow_lost(bundle);
        continue;
      }
      stages_[layer][i]->process_interval(psi[i], outputs_);
      // Children map onto parents by index scaling (contiguous blocks),
      // the shape of the paper's 8-4-2-1 testbed.
      const std::size_t parent =
          i * next_width / stages_[layer].size();
      for (SampledBundle& bundle : outputs_) {
        next_psi[parent].push_back(std::move(bundle).to_bundle());
      }
    }
    psi = std::move(next_psi);
  }

  // Root: sample once more, then accumulate into Θ.
  if (detached_.back()[0] != 0) {
    window_degraded_ = true;
    for (const ItemBundle& bundle : psi[0]) swallow_lost(bundle);
    return;
  }
  for (const auto& bundle : psi[0]) items_at_root_ += bundle.items.size();
  root_stage_->process_interval(psi[0], outputs_);
  for (const SampledBundle& bundle : outputs_) theta_.add(bundle);
}

ApproxResult EdgeTree::close_window(double confidence) {
  ApproxResult result = approximate_query(theta_, confidence);
  theta_.clear();
  result.lost_weight = lost_weight_;
  result.lost_items = lost_items_;
  result.degraded = window_degraded_ || lost_items_ > 0;
  // Loss accounting is per window; the next window starts degraded only
  // if some subtree is still detached as it opens.
  lost_weight_ = 0.0;
  lost_items_ = 0;
  window_degraded_ = false;
  for (const auto& layer : detached_) {
    for (const std::uint8_t flag : layer) {
      if (flag != 0) window_degraded_ = true;
    }
  }
  return result;
}

ApproxResult EdgeTree::run_query(double confidence) const {
  ApproxResult result = approximate_query(theta_, confidence);
  result.lost_weight = lost_weight_;
  result.lost_items = lost_items_;
  result.degraded = window_degraded_ || lost_items_ > 0;
  return result;
}

void EdgeTree::set_sampling_fraction(double end_to_end) {
  config_.sampling_fraction = end_to_end;
  const std::size_t sampling_layers = config_.layer_widths.size() + 1;
  per_layer_fraction_ = per_layer_fraction(end_to_end, sampling_layers);
  if (config_.control_plane != nullptr) {
    // Versioned path: publish epoch N+1; every stage resolves it at its
    // next interval boundary (and stamps outputs with the new epoch).
    config_.control_plane->publish_fraction(end_to_end);
    return;
  }
  const bool snapshot = config_.engine == EngineKind::kSnapshot;
  for (std::size_t layer = 0; layer < stages_.size(); ++layer) {
    const double f = snapshot ? (layer == 0 ? end_to_end : 1.0)
                              : per_layer_fraction_;
    for (auto& stage : stages_[layer]) stage->set_fraction(f);
  }
  root_stage_->set_fraction(snapshot ? 1.0 : per_layer_fraction_);
}

EdgeTree::TreeMetrics EdgeTree::metrics() const {
  TreeMetrics m;
  m.items_ingested = items_ingested_;
  m.items_at_root = items_at_root_;
  for (const auto& layer : stages_) {
    std::uint64_t forwarded = 0;
    for (const auto& stage : layer) forwarded += stage->metrics().items_out;
    m.items_forwarded_per_layer.push_back(forwarded);
  }
  return m;
}

const ThetaStore& EdgeTree::theta() const { return theta_; }

// ---------------------------------------------------------------------------
// Fault tolerance

void EdgeTree::swallow_lost(const ItemBundle& bundle) {
  // Σ over items of W^in(source): interior bundles carry a weight for
  // every stratum they contain (each stage sets W^out per stratum), and
  // leaf input is raw weight-1 data — so this sum equals the original
  // item count the dead subtree had delivered, exactly (Eq. 8).
  for (const Item& item : bundle.items) {
    lost_weight_ += bundle.w_in.get(item.source);
    ++lost_items_;
  }
}

std::uint8_t& EdgeTree::detached_flag(std::size_t layer, std::size_t index) {
  if (layer >= detached_.size() || index >= detached_[layer].size()) {
    throw std::invalid_argument("edge tree: no node at (layer, index)");
  }
  return detached_[layer][index];
}

void EdgeTree::detach_subtree(std::size_t layer, std::size_t index) {
  detached_flag(layer, index) = 1;
  window_degraded_ = true;
}

void EdgeTree::reattach_subtree(std::size_t layer, std::size_t index) {
  detached_flag(layer, index) = 0;
}

bool EdgeTree::subtree_detached(std::size_t layer, std::size_t index) const {
  return const_cast<EdgeTree*>(this)->detached_flag(layer, index) != 0;
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
//
// Section order (shared byte-for-byte with ConcurrentEdgeTree::checkpoint
// so snapshots are interchangeable between the two executions):
// fingerprint, live end-to-end fraction, control plane, stages in
// layer-major order with the root last, Θ, tree counters, fault state.

Checkpoint EdgeTree::checkpoint() const {
  CheckpointWriter writer(CheckpointKind::kTree);
  write_tree_fingerprint(writer, config_);
  writer.put_double(config_.sampling_fraction);
  write_control_plane(writer, config_.control_plane.get());
  for (const auto& layer : stages_) {
    for (const auto& stage : layer) stage->save_state(writer);
  }
  root_stage_->save_state(writer);
  writer.put_theta(theta_);
  writer.put_u64(items_ingested_);
  writer.put_u64(items_at_root_);
  for (const auto& layer : detached_) {
    for (const std::uint8_t flag : layer) writer.put_bool(flag != 0);
  }
  writer.put_double(lost_weight_);
  writer.put_u64(lost_items_);
  writer.put_bool(window_degraded_);
  return writer.finish();
}

void EdgeTree::restore(const Checkpoint& checkpoint) {
  CheckpointReader reader(checkpoint, CheckpointKind::kTree);
  verify_tree_fingerprint(reader, config_);
  // The live fraction may have drifted from the constructed one via
  // set_sampling_fraction; restore the drift too.
  config_.sampling_fraction = reader.get_double();
  per_layer_fraction_ = per_layer_fraction(config_.sampling_fraction,
                                           config_.layer_widths.size() + 1);
  restore_control_plane(reader, config_.control_plane.get());
  for (auto& layer : stages_) {
    for (auto& stage : layer) stage->restore_state(reader);
  }
  root_stage_->restore_state(reader);
  reader.get_theta(theta_);
  items_ingested_ = reader.get_u64();
  items_at_root_ = reader.get_u64();
  for (auto& layer : detached_) {
    for (std::uint8_t& flag : layer) flag = reader.get_bool() ? 1 : 0;
  }
  lost_weight_ = reader.get_double();
  lost_items_ = reader.get_u64();
  window_degraded_ = reader.get_bool();
  reader.expect_exhausted();
}

}  // namespace approxiot::core
