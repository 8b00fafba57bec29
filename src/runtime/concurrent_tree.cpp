#include "runtime/concurrent_tree.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/hooks.hpp"

namespace approxiot::runtime {

namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Loads one leaf's raw source items into a recycled message bundle,
/// reusing its arena: the bundle's buffers are lent out, refilled as the
/// (W^in = {}, items) pair a source contributes, and taken back.
void load_source(core::SampledBundle& bundle, const std::vector<Item>& items) {
  core::ItemBundle staging;
  bundle.swap_buffers(staging);
  staging.items.assign(items.begin(), items.end());
  staging.w_in.clear();
  staging.policy_epoch = 0;
  bundle.swap_buffers(staging);
}

/// A spent message from `channel`'s spares, or a new one.
IntervalMessage reuse_message(BoundedChannel<IntervalMessage>& channel,
                              std::int64_t interval) {
  std::optional<IntervalMessage> spare = channel.take_spare();
  IntervalMessage msg = spare.has_value() ? std::move(*spare)
                                          : IntervalMessage{};
  msg.interval = interval;
  return msg;
}

}  // namespace

ConcurrentEdgeTree::ConcurrentEdgeTree(ConcurrentTreeConfig config)
    : config_(std::move(config)) {
  core::validate_edge_tree_config(config_.tree);
  const auto& widths = config_.tree.layer_widths;

  // Resolve observability sinks before anything that registers against
  // them.
  stats_ = config_.stats;
  tracer_ = config_.tracer;

  // Live feedback needs a control plane to publish on. When none was
  // supplied, seed one whose epoch-0 policy mirrors the tree config —
  // behaviour-neutral until the first observation publishes epoch 1.
  if (config_.adaptive.enabled) {
    if (config_.tree.engine == core::EngineKind::kNative) {
      // Native stages never bind a policy (no budget to steer): the
      // controller would publish epochs nobody applies and report a
      // fraction trajectory disconnected from reality.
      throw std::invalid_argument(
          "adaptive feedback requires a sampling engine (native stages "
          "have no budget to adapt)");
    }
    if (config_.tree.control_plane == nullptr) {
      config_.tree.control_plane = core::make_control_plane(config_.tree);
    }
    controller_ = std::make_unique<core::AdaptiveController>(
        config_.tree.sampling_fraction, config_.adaptive.controller);
  }

  auto new_channel = [this]() {
    channels_.push_back(std::make_unique<BoundedChannel<IntervalMessage>>(
        config_.channel_capacity, config_.backpressure));
    return channels_.back().get();
  };

  // Source -> leaf channels.
  leaf_inputs_.reserve(widths[0]);
  for (std::size_t i = 0; i < widths[0]; ++i) {
    leaf_inputs_.push_back(new_channel());
  }

  // Nodes, layer by layer; the root is the single node of layer n.
  nodes_.resize(widths.size() + 1);
  for (std::size_t layer = 0; layer <= widths.size(); ++layer) {
    const std::size_t width = layer < widths.size() ? widths[layer] : 1;
    nodes_[layer].resize(width);
    for (std::size_t i = 0; i < width; ++i) {
      NodeRuntime& node = nodes_[layer][i];
      node.stage = core::make_pipeline_stage(
          core::edge_tree_stage_config(config_.tree, layer, i));
      node.layer = layer;
      node.fault = std::make_unique<FaultState>();
      node.output = layer < widths.size() ? new_channel() : nullptr;
    }
  }

  if (config_.chaos.enabled) {
    if (config_.chaos.kill_every_n_intervals == 0) {
      throw std::invalid_argument(
          "chaos: kill_every_n_intervals must be >= 1");
    }
    chaos_rng_.reseed(config_.chaos.seed);
  }

  // Wiring. Leaves read the source channels; node i of layer L feeds
  // parent i * next_width / width (the EdgeTree block mapping), and a
  // parent's inputs keep child-index order so Ψ ordering — and therefore
  // every RNG draw — matches the sequential tree exactly.
  for (std::size_t i = 0; i < widths[0]; ++i) {
    nodes_[0][i].inputs.push_back(leaf_inputs_[i]);
  }
  for (std::size_t layer = 0; layer < widths.size(); ++layer) {
    const std::size_t next_width =
        layer + 1 < widths.size() ? widths[layer + 1] : 1;
    for (std::size_t i = 0; i < widths[layer]; ++i) {
      const std::size_t parent = i * next_width / widths[layer];
      nodes_[layer + 1][parent].inputs.push_back(nodes_[layer][i].output);
    }
  }

  // Register stats and trace tracks before any worker exists — the node
  // tasks read their NodeRuntime sinks without synchronisation.
  bind_observability();
  start_scheduler();
}

void ConcurrentEdgeTree::start_scheduler() {
  std::size_t total_nodes = 0;
  for (const auto& layer : nodes_) total_nodes += layer.size();

  std::size_t workers = config_.event_workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, total_nodes);

  JobScheduler::Options options;
  options.workers = workers;
  options.stats = stats_;
  options.tracer = tracer_;
  options.scope = "tree/sched";
  scheduler_ = std::make_unique<JobScheduler>(std::move(options));

  // One task per node. The task body makes all possible progress and
  // parks; channel readiness re-queues it. Registration happens before
  // start(), so workers never see a half-built task table.
  for (std::size_t layer = 0; layer < nodes_.size(); ++layer) {
    for (std::size_t i = 0; i < nodes_[layer].size(); ++i) {
      NodeRuntime& node = nodes_[layer][i];
      node.event.inbox.resize(node.inputs.size());
      node.event.finished.assign(node.inputs.size(), false);
      core::PipelineStage* stage = node.stage.get();
      node.event.task = scheduler_->add_task(
          node_scope(layer, i), [this, &node] { event_pump(node); },
          [stage] {
            return static_cast<std::int64_t>(stage->policy_epoch());
          });
    }
  }

  // Readiness wiring: a push into (or close of) any input wakes the
  // consumer; a pop from (or close of) a node's output wakes the
  // producer so a parked forward can be re-offered. Set before start()
  // — waiter installation is not synchronised against channel traffic.
  for (auto& layer : nodes_) {
    for (NodeRuntime& node : layer) {
      const JobScheduler::TaskId task = node.event.task;
      for (auto* input : node.inputs) {
        input->set_readable_waiter(
            [this, task] { scheduler_->notify(task); });
      }
      if (node.output != nullptr) {
        node.output->set_writable_waiter(
            [this, task] { scheduler_->notify(task); });
      }
    }
  }

  scheduler_->start();
}

std::string ConcurrentEdgeTree::node_scope(std::size_t layer,
                                           std::size_t index) const {
  if (layer + 1 == nodes_.size()) return "tree/root";
  return "tree/L" + std::to_string(layer) + "/n" + std::to_string(index);
}

std::int64_t ConcurrentEdgeTree::obs_now_us() const {
  return tracer_ != nullptr ? tracer_->now_us() : now_us();
}

void ConcurrentEdgeTree::bind_observability() {
  AIOT_OBS(
      if (stats_ == nullptr && tracer_ == nullptr) return;
      for (std::size_t layer = 0; layer < nodes_.size(); ++layer) {
        for (std::size_t i = 0; i < nodes_[layer].size(); ++i) {
          NodeRuntime& node = nodes_[layer][i];
          const std::string scope = node_scope(layer, i);
          if (stats_ != nullptr) {
            node.exec_us = &stats_->histogram(scope + "/exec_us");
            node.occupancy =
                &stats_->linear_histogram(scope + "/occupancy", 0.0, 1.0, 20);
            node.items_in = &stats_->counter(scope + "/items_in");
            node.intervals = &stats_->counter(scope + "/intervals");
            for (std::size_t c = 0; c < node.inputs.size(); ++c) {
              const std::string edge = scope + "/in" + std::to_string(c);
              ChannelStats cs;
              cs.depth = &stats_->gauge(edge + "/depth");
              cs.block_wait_us = &stats_->histogram(edge + "/block_wait_us");
              cs.dropped = &stats_->counter(edge + "/dropped");
              node.inputs[c]->bind_stats(cs);
            }
          }
          if (tracer_ != nullptr) node.track = tracer_->register_track(scope);
        }
      }
      if (stats_ != nullptr) {
        windows_closed_ = &stats_->counter("tree/windows_closed");
        interval_latency_us_ =
            &stats_->histogram("tree/interval_latency_us");
      }
      if (tracer_ != nullptr) {
        control_track_ = tracer_->register_track("tree/control");
      }
      // Epoch-publish events: observed at the plane itself, so manual
      // publish_fraction() calls are recorded exactly like the adaptive
      // loop's. (Rebinds any hook a caller set on a shared plane.)
      if (config_.tree.control_plane != nullptr) {
        obs::Counter* publishes =
            stats_ != nullptr ? &stats_->counter("tree/policy/publishes")
                              : nullptr;
        obs::Gauge* epoch_gauge =
            stats_ != nullptr ? &stats_->gauge("tree/policy/epoch") : nullptr;
        obs::Gauge* fraction_gauge =
            stats_ != nullptr ? &stats_->gauge("tree/policy/fraction")
                              : nullptr;
        config_.tree.control_plane->set_publish_hook(
            [publishes, epoch_gauge, fraction_gauge, tracer = tracer_,
             track = control_track_](const core::SamplingPolicy& policy) {
              if (publishes != nullptr) publishes->increment();
              if (epoch_gauge != nullptr) {
                epoch_gauge->set(static_cast<double>(policy.epoch));
              }
              if (fraction_gauge != nullptr) {
                fraction_gauge->set(policy.budget.sampling_fraction);
              }
              if (tracer != nullptr &&
                  track != obs::ScopedSpan::kNoTrack) {
                tracer->instant(track, "policy-publish",
                                static_cast<std::int64_t>(policy.epoch));
              }
            });
      });
}

ConcurrentEdgeTree::~ConcurrentEdgeTree() { stop(); }

std::size_t ConcurrentEdgeTree::leaf_count() const noexcept {
  return config_.tree.layer_widths.front();
}

std::size_t ConcurrentEdgeTree::node_count() const noexcept {
  std::size_t n = 0;
  for (const auto& layer : nodes_) n += layer.size();
  return n;
}

void ConcurrentEdgeTree::push_interval(
    const std::vector<std::vector<Item>>& items_per_leaf) {
  if (items_per_leaf.size() != leaf_count()) {
    throw std::invalid_argument(
        "push_interval() expects one item vector per leaf");
  }

  // One lock across seq assignment AND the channel pushes: two producers
  // interleaving their pushes would deliver seqs out of order, and a
  // receiver treats a lower-seq message arriving late as stale.
  std::lock_guard<std::mutex> push_lock(push_mutex_);

  std::int64_t seq = 0;
  std::uint64_t total_items = 0;
  for (const auto& items : items_per_leaf) total_items += items.size();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stopped_) {
      throw std::logic_error("push_interval() after stop()");
    }
    seq = next_interval_++;
    items_ingested_ += total_items;
    AIOT_OBS(if (interval_latency_us_ != nullptr) {
      push_times_us_[seq] = now_us();
    });
  }

  // Pushes happen outside the state lock: under kBlock a saturated leaf
  // parks the producer right here — that is the backpressure surface.
  // Each leaf message is one the leaf already consumed and recycled.
  for (std::size_t i = 0; i < items_per_leaf.size(); ++i) {
    IntervalMessage msg = reuse_message(*leaf_inputs_[i], seq);
    if (items_per_leaf[i].empty()) {
      msg.bundles.clear();
    } else {
      msg.bundles.resize(1);
      load_source(msg.bundles[0], items_per_leaf[i]);
    }
    leaf_inputs_[i]->push(std::move(msg));
  }
}

void ConcurrentEdgeTree::drain() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  drained_cv_.wait(lock, [this] {
    return stopped_ ||
           intervals_completed_ >= static_cast<std::uint64_t>(next_interval_);
  });
}

void ConcurrentEdgeTree::stop() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  for (auto* channel : leaf_inputs_) channel->close();
  // The closes cascade layer by layer (each finishing node closes its
  // output, waking its parent) until the root task observes end-of-stream;
  // only then is the worker pool quiescent and safe to join. Everything
  // still in flight is flushed through first.
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    drained_cv_.wait(lock, [this] { return root_finished_; });
  }
  scheduler_->shutdown();
  drained_cv_.notify_all();
}

core::ApproxResult ConcurrentEdgeTree::close_window(double confidence) {
  [[maybe_unused]] std::int64_t t_close = 0;
  AIOT_OBS(t_close = obs_now_us(););
  // Under kDropNewest a shed trailing interval never completes, so a full
  // drain() could wait forever; the window then closes over whatever
  // reached the root (the drop already was a sampling decision).
  if (config_.backpressure == BackpressurePolicy::kBlock) drain();
  core::ApproxResult result;
  {
    std::lock_guard<std::mutex> lock(theta_mutex_);
    result = core::approximate_query(theta_, confidence);
    theta_.clear();
  }
  // Loss accounting is per window, same semantics as EdgeTree: report and
  // reset; the next window opens degraded only if some node is still dead.
  bool any_dead = false;
  for (const auto& layer : nodes_) {
    for (const NodeRuntime& node : layer) {
      if (node.fault->dead.load(std::memory_order_acquire)) any_dead = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    result.lost_weight = lost_weight_;
    result.lost_items = lost_items_;
    result.degraded = window_degraded_ || lost_items_ > 0;
    lost_weight_ = 0.0;
    lost_items_ = 0;
    window_degraded_ = any_dead;
  }
  AIOT_OBS(
      if (windows_closed_ != nullptr) windows_closed_->increment();
      if (tracer_ != nullptr &&
          control_track_ != obs::ScopedSpan::kNoTrack) {
        tracer_->complete(control_track_, "window-close", t_close,
                          obs_now_us(),
                          static_cast<std::int64_t>(policy_epoch()));
      });
  // §IV-B: the closed window's error bound drives the next policy epoch.
  // Outside theta_mutex_ — publishing must never block the root worker's
  // Θ additions.
  if (controller_ != nullptr) observe_and_publish(result);
  return result;
}

void ConcurrentEdgeTree::observe_and_publish(
    const core::ApproxResult& result) {
  // An empty window (no samples at all) carries no error signal the
  // controller should act on — relative_margin() would be infinite and
  // spuriously ramp the fraction to max.
  if (result.sampled_items == 0) return;
  // adaptive_mutex_ spans observe AND compare-and-publish: a mid-window
  // observation racing a close_window() observation must publish in the
  // order the controller moved, or the plane could settle on the older
  // of two proposals while controller_->fraction() reports the newer.
  std::lock_guard<std::mutex> lock(adaptive_mutex_);
  const double next = controller_->observe(result.sum);
  intervals_since_observation_ = 0;
  auto& plane = config_.tree.control_plane;
  if (plane != nullptr &&
      plane->snapshot()->budget.sampling_fraction != next) {
    plane->publish_fraction(next);
  }
}

void ConcurrentEdgeTree::kick() { scheduler_->notify_all(); }

core::PolicyEpoch ConcurrentEdgeTree::publish_fraction(double end_to_end) {
  if (config_.tree.control_plane == nullptr) {
    throw std::logic_error("publish_fraction() without a control plane");
  }
  return config_.tree.control_plane->publish_fraction(end_to_end);
}

double ConcurrentEdgeTree::adaptive_fraction() const {
  if (controller_ == nullptr) return config_.tree.sampling_fraction;
  std::lock_guard<std::mutex> lock(adaptive_mutex_);
  return controller_->fraction();
}

std::vector<double> ConcurrentEdgeTree::adaptive_history() const {
  if (controller_ == nullptr) return {};
  std::lock_guard<std::mutex> lock(adaptive_mutex_);
  return controller_->history();
}

core::ApproxResult ConcurrentEdgeTree::run_query(double confidence) const {
  core::ApproxResult result;
  {
    std::lock_guard<std::mutex> lock(theta_mutex_);
    result = core::approximate_query(theta_, confidence);
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  result.lost_weight = lost_weight_;
  result.lost_items = lost_items_;
  result.degraded = window_degraded_ || lost_items_ > 0;
  return result;
}

ConcurrentEdgeTree::TreeMetrics ConcurrentEdgeTree::metrics() const {
  TreeMetrics m;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    m.items_ingested = items_ingested_;
    m.items_at_root = items_at_root_;
    m.intervals_pushed = static_cast<std::uint64_t>(next_interval_);
    m.intervals_completed = intervals_completed_;
  }
  for (const auto& channel : channels_) {
    m.messages_dropped += channel->dropped();
  }
  // Per-layer forwarded counts (excluding the root, matching EdgeTree).
  for (std::size_t layer = 0; layer + 1 < nodes_.size(); ++layer) {
    std::uint64_t forwarded = 0;
    for (const NodeRuntime& node : nodes_[layer]) {
      forwarded += node.stage->metrics().items_out;
    }
    m.items_forwarded_per_layer.push_back(forwarded);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Fault injection & recovery

ConcurrentEdgeTree::NodeRuntime& ConcurrentEdgeTree::node_at(
    std::size_t layer, std::size_t index) {
  if (layer >= nodes_.size() || index >= nodes_[layer].size()) {
    throw std::invalid_argument("concurrent tree: no node at (layer, index)");
  }
  return nodes_[layer][index];
}

const ConcurrentEdgeTree::NodeRuntime& ConcurrentEdgeTree::node_at(
    std::size_t layer, std::size_t index) const {
  return const_cast<ConcurrentEdgeTree*>(this)->node_at(layer, index);
}

void ConcurrentEdgeTree::kill_node(std::size_t layer, std::size_t index,
                                   bool capture) {
  NodeRuntime& node = node_at(layer, index);
  if (node.output == nullptr) {
    throw std::invalid_argument(
        "the root cannot be killed (stop() the tree instead)");
  }
  FaultState& fault = *node.fault;
  if (fault.dead.load(std::memory_order_acquire)) return;  // idempotent
  // Request order matters: the capture flag must be visible before the
  // worker observes dead == true, which the release store guarantees.
  fault.capture_requested.store(capture, std::memory_order_relaxed);
  fault.dead.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++kills_;
    window_degraded_ = true;
  }
  AIOT_OBS(
      if (stats_ != nullptr) stats_->counter("tree/faults/kills").increment();
      if (tracer_ != nullptr && control_track_ != obs::ScopedSpan::kNoTrack) {
        tracer_->instant(control_track_, "node-kill",
                         static_cast<std::int64_t>((layer << 16) | index));
      });
}

void ConcurrentEdgeTree::revive_node(std::size_t layer, std::size_t index,
                                     bool restore) {
  NodeRuntime& node = node_at(layer, index);
  FaultState& fault = *node.fault;
  if (!fault.dead.load(std::memory_order_acquire)) return;  // idempotent
  // A capture the worker never serviced (killed and revived between two
  // of its intervals) must be cancelled: a stale self-capture AFTER
  // revival would pass live state off as the at-death snapshot.
  fault.capture_requested.store(false, std::memory_order_relaxed);
  bool has_capture = false;
  {
    std::lock_guard<std::mutex> lock(fault.mutex);
    has_capture = fault.saved.has_value();
  }
  fault.restore_requested.store(restore && has_capture,
                                std::memory_order_relaxed);
  fault.dead.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++revives_;
  }
  AIOT_OBS(
      if (stats_ != nullptr) {
        stats_->counter("tree/faults/revives").increment();
      } if (tracer_ != nullptr &&
            control_track_ != obs::ScopedSpan::kNoTrack) {
        tracer_->instant(control_track_, "node-revive",
                         static_cast<std::int64_t>((layer << 16) | index));
      });
}

bool ConcurrentEdgeTree::node_dead(std::size_t layer,
                                   std::size_t index) const {
  return node_at(layer, index).fault->dead.load(std::memory_order_acquire);
}

ConcurrentEdgeTree::FaultMetrics ConcurrentEdgeTree::fault_metrics() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  FaultMetrics m;
  m.kills = kills_;
  m.revives = revives_;
  m.lost_items = total_lost_items_;
  m.lost_weight = total_lost_weight_;
  return m;
}

void ConcurrentEdgeTree::absorb_dead_interval(
    const std::vector<core::ItemBundle>& psi) {
  // Σ over items of W^in(source) — the same Eq. 8 identity EdgeTree's
  // swallow_lost relies on: interior bundles carry a weight per stratum
  // and leaf input is raw weight-1 data, so the sum equals the original
  // delivered count of the dead subtree, exactly.
  double weight = 0.0;
  std::uint64_t items = 0;
  for (const core::ItemBundle& bundle : psi) {
    for (const Item& item : bundle.items) {
      weight += bundle.w_in.get(item.source);
      ++items;
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    lost_weight_ += weight;
    lost_items_ += items;
    total_lost_weight_ += weight;
    total_lost_items_ += items;
    window_degraded_ = true;
  }
  AIOT_OBS(if (stats_ != nullptr && items > 0) {
    stats_->counter("tree/faults/lost_items").increment(items);
    stats_->gauge("tree/faults/lost_weight").set(total_lost_weight_);
  });
}

void ConcurrentEdgeTree::chaos_step() {
  // Root-task-only: complete_root_interval is called exclusively from the
  // root node's task, and a task never runs on two workers at once, so
  // this state is single-threaded.
  std::uint64_t completed = 0;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    completed = intervals_completed_;
  }
  for (auto it = chaos_pending_.begin(); it != chaos_pending_.end();) {
    if (std::get<2>(*it) <= completed) {
      revive_node(std::get<0>(*it), std::get<1>(*it),
                  config_.chaos.checkpoint_restore);
      it = chaos_pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (++chaos_since_kill_ < config_.chaos.kill_every_n_intervals) return;
  chaos_since_kill_ = 0;
  // Victim: a uniformly random alive non-root node.
  std::vector<std::pair<std::size_t, std::size_t>> alive;
  for (std::size_t layer = 0; layer + 1 < nodes_.size(); ++layer) {
    for (std::size_t i = 0; i < nodes_[layer].size(); ++i) {
      if (!nodes_[layer][i].fault->dead.load(std::memory_order_acquire)) {
        alive.emplace_back(layer, i);
      }
    }
  }
  if (alive.empty()) return;
  const auto [layer, index] = alive[chaos_rng_.next_below(alive.size())];
  kill_node(layer, index, config_.chaos.checkpoint_restore);
  chaos_pending_.emplace_back(layer, index,
                              completed + config_.chaos.dead_intervals);
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
//
// Section order (shared byte-for-byte with core::EdgeTree::checkpoint so
// snapshots are interchangeable between the two executions): fingerprint,
// live end-to-end fraction, control plane, stages in layer-major order
// with the root last, Θ, tree counters, fault state.

core::Checkpoint ConcurrentEdgeTree::checkpoint() const {
  core::CheckpointWriter writer(core::CheckpointKind::kTree);
  core::write_tree_fingerprint(writer, config_.tree);
  writer.put_double(config_.tree.sampling_fraction);
  core::write_control_plane(writer, config_.tree.control_plane.get());
  for (const auto& layer : nodes_) {
    for (const NodeRuntime& node : layer) node.stage->save_state(writer);
  }
  {
    std::lock_guard<std::mutex> lock(theta_mutex_);
    writer.put_theta(theta_);
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    writer.put_u64(items_ingested_);
    writer.put_u64(items_at_root_);
  }
  // Dead flags take the detach-flag slots: one bool per node, layer-major,
  // root last — a dead node restores as a detached subtree in EdgeTree
  // and vice versa.
  for (const auto& layer : nodes_) {
    for (const NodeRuntime& node : layer) {
      writer.put_bool(node.fault->dead.load(std::memory_order_acquire));
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    writer.put_double(lost_weight_);
    writer.put_u64(lost_items_);
    writer.put_bool(window_degraded_);
  }
  return writer.finish();
}

void ConcurrentEdgeTree::restore(const core::Checkpoint& checkpoint) {
  core::CheckpointReader reader(checkpoint, core::CheckpointKind::kTree);
  core::verify_tree_fingerprint(reader, config_.tree);
  config_.tree.sampling_fraction = reader.get_double();
  core::restore_control_plane(reader, config_.tree.control_plane.get());
  for (auto& layer : nodes_) {
    for (NodeRuntime& node : layer) node.stage->restore_state(reader);
  }
  {
    std::lock_guard<std::mutex> lock(theta_mutex_);
    reader.get_theta(theta_);
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    items_ingested_ = reader.get_u64();
    items_at_root_ = reader.get_u64();
  }
  for (auto& layer : nodes_) {
    for (NodeRuntime& node : layer) {
      FaultState& fault = *node.fault;
      fault.capture_requested.store(false, std::memory_order_relaxed);
      fault.restore_requested.store(false, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(fault.mutex);
        fault.saved.reset();
      }
      fault.dead.store(reader.get_bool(), std::memory_order_release);
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    lost_weight_ = reader.get_double();
    lost_items_ = reader.get_u64();
    window_degraded_ = reader.get_bool();
  }
  reader.expect_exhausted();
}

void ConcurrentEdgeTree::file_message(
    NodeRuntime& node, std::size_t c, IntervalMessage&& msg,
    std::int64_t interval,
    std::vector<std::optional<IntervalMessage>>& inbox) {
  if (msg.interval < interval) {
    node.inputs[c]->recycle(std::move(msg));
    return;
  }
  inbox[c] = std::move(msg);
}

bool ConcurrentEdgeTree::resolve_input(NodeRuntime& node, std::size_t c,
                                       bool park) {
  EventState& ev = node.event;
  BoundedChannel<IntervalMessage>& input = *node.inputs[c];
  while (!ev.inbox[c].has_value() && !ev.finished[c]) {
    std::optional<IntervalMessage> msg =
        park ? input.try_pop() : input.poll();
    if (msg.has_value()) {
      file_message(node, c, std::move(*msg), ev.interval, ev.inbox);
    } else if (input.drained()) {
      ev.finished[c] = true;
    } else {
      return false;
    }
  }
  return true;
}

void ConcurrentEdgeTree::lend(IntervalMessage& msg,
                              std::vector<core::ItemBundle>& psi) {
  for (core::SampledBundle& bundle : msg.bundles) {
    psi.emplace_back();
    bundle.swap_buffers(psi.back());
  }
}

void ConcurrentEdgeTree::return_lent(
    NodeRuntime& node, std::int64_t interval,
    std::vector<std::optional<IntervalMessage>>& inbox,
    std::vector<core::ItemBundle>& psi) {
  // Same walk as the lending: child order, then bundle order.
  std::size_t j = 0;
  for (std::size_t c = 0; c < inbox.size(); ++c) {
    std::optional<IntervalMessage>& msg = inbox[c];
    if (!msg.has_value() || msg->interval != interval) continue;
    for (core::SampledBundle& bundle : msg->bundles) {
      bundle.swap_buffers(psi[j++]);
    }
    node.inputs[c]->recycle(std::move(*msg));
    msg.reset();
  }
  psi.clear();  // the entries hold only their own, empty buffers again
}

std::optional<IntervalMessage> ConcurrentEdgeTree::execute_node_interval(
    NodeRuntime& node, std::int64_t interval,
    const std::vector<core::ItemBundle>& psi) {
  const bool is_root = node.output == nullptr;

  // Fault gate. All stage access stays in this task — the only code that
  // ever touches node.stage — so capture/restore need no stage lock:
  // kill_node/revive_node only flip request flags, and the dead flag's
  // release/acquire pairing publishes them to us.
  FaultState& fault = *node.fault;
  if (fault.dead.load(std::memory_order_acquire)) {
    if (fault.capture_requested.exchange(false, std::memory_order_acq_rel)) {
      // Self-capture at the moment of death: the stage state after the
      // last interval it completed alive.
      core::Checkpoint saved = core::checkpoint_stage(*node.stage);
      std::lock_guard<std::mutex> lock(fault.mutex);
      fault.saved = std::move(saved);
    }
    absorb_dead_interval(psi);
    if (is_root) {
      // A dead root still completes the interval (drain() must not hang)
      // — it just folds nothing into Θ.
      complete_root_interval(interval);
      return std::nullopt;
    }
    // Forward an empty message so the parent's interval alignment — and
    // the end-of-stream cascade — survive the outage.
    IntervalMessage out = reuse_message(*node.output, interval);
    out.bundles.clear();
    return out;
  }
  if (fault.restore_requested.exchange(false, std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(fault.mutex);
    if (fault.saved.has_value()) {
      core::restore_stage(*node.stage, *fault.saved);
    }
  }

  // Read the clock only when the exec histogram or a track will use it.
  [[maybe_unused]] std::int64_t t_phase = 0;
  AIOT_OBS(if (node.exec_us != nullptr ||
               node.track != obs::ScopedSpan::kNoTrack) {
    t_phase = obs_now_us();
  });

  if (is_root) {
    std::uint64_t arrived = 0;
    for (const core::ItemBundle& bundle : psi) {
      arrived += bundle.items.size();
    }
    std::vector<core::SampledBundle>& outputs = root_outputs_;
    node.stage->process_interval(psi, outputs);
    AIOT_OBS(
        if (node.exec_us != nullptr ||
            node.track != obs::ScopedSpan::kNoTrack) {
          const std::int64_t t_done = obs_now_us();
          if (node.exec_us != nullptr) {
            node.exec_us->record(static_cast<double>(t_done - t_phase));
          }
          if (tracer_ != nullptr &&
              node.track != obs::ScopedSpan::kNoTrack) {
            tracer_->complete(
                node.track, "stage-execute", t_phase, t_done,
                static_cast<std::int64_t>(node.stage->policy_epoch()));
          }
          t_phase = t_done;
        });
    {
      std::lock_guard<std::mutex> lock(theta_mutex_);
      for (const core::SampledBundle& bundle : outputs) {
        theta_.add(bundle);
      }
    }
    AIOT_OBS(
        if (tracer_ != nullptr &&
            node.track != obs::ScopedSpan::kNoTrack) {
          tracer_->complete(
              node.track, "root-merge", t_phase, obs_now_us(),
              static_cast<std::int64_t>(node.stage->policy_epoch()));
        });
    if (config_.root_tap) {
      for (const core::SampledBundle& bundle : outputs) {
        config_.root_tap(bundle);
      }
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      items_at_root_ += arrived;
    }
    complete_root_interval(interval);
    return std::nullopt;
  }

  // Sample straight into a recycled message: its bundles' arenas and
  // weight tables are reused, so a steady-state interval allocates
  // nothing here.
  IntervalMessage out = reuse_message(*node.output, interval);
  node.stage->process_interval(psi, out.bundles);
  AIOT_OBS(
      if (node.exec_us != nullptr ||
          node.track != obs::ScopedSpan::kNoTrack) {
        const std::int64_t t_done = obs_now_us();
        if (node.exec_us != nullptr) {
          node.exec_us->record(static_cast<double>(t_done - t_phase));
        }
        if (tracer_ != nullptr &&
            node.track != obs::ScopedSpan::kNoTrack) {
          tracer_->complete(
              node.track, "stage-execute", t_phase, t_done,
              static_cast<std::int64_t>(node.stage->policy_epoch()));
        }
      });
  return out;
}

void ConcurrentEdgeTree::event_pump(NodeRuntime& node) {
  EventState& ev = node.event;
  if (ev.done) return;  // late spurious wake after end-of-stream

  for (;;) {
    // Phase 0: a forward parked on a full downstream channel (kBlock)
    // must leave before anything else — output order is interval order.
    if (ev.pending_out.has_value()) {
      if (node.output->try_push_from(*ev.pending_out)) {
        ev.pending_out.reset();
      } else if (node.output->closed()) {
        ev.pending_out.reset();  // undeliverable, same as a failed push()
      } else {
        return;  // parked; the consumer's next pop wakes us
      }
    }

    // Phase 1: assemble Ψ for ev.interval strictly in child order: the
    // cursor lends input c's bundles only once inputs 0..c-1 are lent
    // (later inputs may be filed early but wait their turn), which keeps
    // Ψ — and every RNG draw — bit-identical to the sequential EdgeTree.
    // A held later-interval message means the child's message for this
    // interval was shed (drop policy): it contributes nothing now,
    // exactly as if its sensors were silent.
    const std::size_t n_inputs = node.inputs.size();
    while (ev.gather_cursor < n_inputs) {
      const std::size_t c = ev.gather_cursor;
      if (!resolve_input(node, c, /*park=*/false)) {
        // Input c is missing. Sleep on the LAST input still missing, not
        // on c: children mostly finish in index order, so waking for
        // each one in turn would cost a run per child, while the last
        // one's push usually finds every input ready — one run per
        // interval. Later inputs that are ready get filed on the way.
        std::size_t last = c;
        for (std::size_t j = n_inputs - 1; j > c; --j) {
          if (!resolve_input(node, j, /*park=*/false)) {
            last = j;
            break;
          }
        }
        if (!resolve_input(node, last, /*park=*/true)) return;
        continue;  // `last` arrived meanwhile: look again
      }
      if (ev.inbox[c].has_value() && ev.inbox[c]->interval == ev.interval) {
        lend(*ev.inbox[c], ev.psi);
      }
      ++ev.gather_cursor;
    }

    // End of stream: every input closed and drained, nothing held back,
    // nothing gathered. Deciding this *after* gathering keeps the last
    // real interval in and phantom trailing intervals out — each node
    // processes exactly the intervals that were fed to it, like EdgeTree.
    bool all_finished = true;
    bool any_held = false;
    for (std::size_t c = 0; c < node.inputs.size(); ++c) {
      all_finished = all_finished && ev.finished[c];
      any_held = any_held || ev.inbox[c].has_value();
    }
    if (all_finished && !any_held && ev.psi.empty()) {
      ev.done = true;
      if (node.output != nullptr) {
        node.output->close();  // cascades the shutdown to the parent
      } else {
        {
          std::lock_guard<std::mutex> lock(state_mutex_);
          root_finished_ = true;
        }
        drained_cv_.notify_all();  // stop() waits for the root to finish
      }
      return;
    }

    AIOT_OBS(
        if (node.occupancy != nullptr && !node.inputs.empty()) {
          double depth = 0.0;
          double capacity = 0.0;
          for (auto* input : node.inputs) {
            depth += static_cast<double>(input->size());
            capacity += static_cast<double>(input->capacity());
          }
          node.occupancy->record(capacity > 0.0 ? depth / capacity : 0.0);
        } if (node.items_in != nullptr) {
          std::uint64_t gathered = 0;
          for (const core::ItemBundle& bundle : ev.psi) {
            gathered += bundle.items.size();
          }
          node.items_in->increment(gathered);
        } if (node.intervals != nullptr) node.intervals->increment(););

    // Run the stage even on an empty Ψ — interval bookkeeping (budget
    // history, snapshot periods) must advance exactly as in EdgeTree.
    std::optional<IntervalMessage> out =
        execute_node_interval(node, ev.interval, ev.psi);
    return_lent(node, ev.interval, ev.inbox, ev.psi);
    ev.gather_cursor = 0;
    ++ev.interval;

    if (out.has_value()) {
      if (config_.backpressure == BackpressurePolicy::kBlock) {
        // Offer via the pending slot so a full channel parks us instead
        // of blocking a pool worker (which could deadlock the pool).
        ev.pending_out = std::move(out);
      } else {
        // kDropNewest never blocks: push() sheds at a full channel and
        // counts the loss.
        node.output->push(std::move(*out));
      }
    }
  }
}

void ConcurrentEdgeTree::complete_root_interval(
    [[maybe_unused]] std::int64_t interval) {
  [[maybe_unused]] std::int64_t latency_us = -1;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++intervals_completed_;
    AIOT_OBS(if (interval_latency_us_ != nullptr) {
      auto it = push_times_us_.find(interval);
      if (it != push_times_us_.end()) {
        latency_us = now_us() - it->second;
        push_times_us_.erase(it);
      }
    });
  }
  drained_cv_.notify_all();
  AIOT_OBS(if (latency_us >= 0) {
    interval_latency_us_->record(static_cast<double>(latency_us));
  });

  // Built-in chaos: kill/revive decisions ride the root's own interval
  // completions, so the fault schedule is deterministic per seed.
  if (config_.chaos.enabled) chaos_step();

  // Mid-window feedback (§IV-B live): every N completed root intervals,
  // observe the running window's confidence interval and let the
  // controller republish — from the root's own task, while every other
  // worker keeps flowing. Upstream nodes adopt the new epoch at their
  // next interval boundary: the feedback edge is out-of-band, carried by
  // the control plane instead of the data channels.
  if (controller_ != nullptr &&
      config_.adaptive.intervals_per_observation > 0) {
    bool due = false;
    {
      std::lock_guard<std::mutex> lock(adaptive_mutex_);
      due = ++intervals_since_observation_ >=
            config_.adaptive.intervals_per_observation;
    }
    if (due) observe_and_publish(run_query(config_.adaptive.confidence));
  }
}

}  // namespace approxiot::runtime
