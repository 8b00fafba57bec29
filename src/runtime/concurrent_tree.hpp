// ConcurrentEdgeTree: the paper's no-coordination claim, executed.
//
// core::EdgeTree ticks its layers in lockstep from one thread. This
// runtime makes every tree node its own task: a node consumes one
// IntervalMessage per interval from each child's BoundedChannel, runs the
// exact same core::PipelineStage (WHS / SRS / native / snapshot), and
// pushes its (W^out, sample) output upstream. Layers therefore *pipeline*
// — the leaves may be sampling interval k+3 while the root is still on
// interval k — and the only contact between nodes is the channels,
// mirroring how ApproxIoT's layers coordinate solely through Kafka topics.
//
// Execution: every node is a parkable task on a fixed-size work-stealing
// JobScheduler, woken by channel readiness (see job_scheduler.hpp). Node
// count is a data-structure dimension, not an OS-resource one: one
// process runs 10k+ logical nodes on an 8-worker pool.
//
// Determinism: stages are built with core::edge_tree_stage_config, so with
// kBlock backpressure (lossless) the ConcurrentEdgeTree produces
// bit-identical samples, weights and Θ to a sequential EdgeTree fed the
// same input, at any scheduler worker count — the equivalence the runtime
// test suite pins down. A task never runs on two workers at once, Ψ is
// assembled in child order, and every RNG lives in the node's stage (not
// in any worker), so the scheduler can only change wall-clock
// interleaving. Each WHS node samples with its own core::WHSampler on the
// task that runs it; the scheduler is the process's only worker pool.
//
// Backpressure: kBlock propagates pressure source-wards and loses
// nothing. kDropNewest sheds whole interval messages at full channels and
// counts them — a coarse extra sampling stage for overload; see
// bounded_channel.hpp for why ApproxIoT can absorb that.
//
// Metrics: TreeMetrics/FaultMetrics for the tree's own counters, and the
// obs::StatsRegistry / obs::Tracer bound in the config for everything
// else (per-node, per-edge and scheduler stats, interval latency, spans).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/adaptive.hpp"
#include "core/batch.hpp"
#include "core/checkpoint.hpp"
#include "core/control_plane.hpp"
#include "core/pipeline.hpp"
#include "core/theta_store.hpp"
#include "obs/trace.hpp"
#include "runtime/bounded_channel.hpp"
#include "runtime/job_scheduler.hpp"

namespace approxiot::runtime {

/// The execution substrate: nodes are tasks on a work-stealing
/// JobScheduler. It is the only one; the enum is kept so that existing
/// configs that name it still compile.
enum class RuntimeMode {
  kEvents,
};

/// One interval's worth of Ψ contribution travelling over one tree edge.
/// `bundles` may be empty (an interval in which the child produced
/// nothing); the message still flows so receivers can align intervals.
///
/// Messages are recycled, not freed (the buffer cycle): a producer takes
/// a spent message back from its output channel (take_spare) and its
/// stage samples straight into `bundles`, reusing every arena and weight
/// table; the consumer lends the bundles to its Ψ by swapping buffers
/// (SampledBundle::swap_buffers — O(1), no item copies), runs its stage,
/// swaps them back and recycles the message into the same channel. On a
/// leaf edge a bundle carries the raw source items in its arena with no
/// strata and no weights; lending turns it into the (W^in = {}, items)
/// pair a source contributes.
struct IntervalMessage {
  std::int64_t interval{0};
  std::vector<core::SampledBundle> bundles;
};

struct ConcurrentTreeConfig {
  /// Topology, engine, fractions, seeds — shared with core::EdgeTree.
  core::EdgeTreeConfig tree{};
  /// Interval messages in flight per edge before backpressure kicks in.
  std::size_t channel_capacity{8};
  BackpressurePolicy backpressure{BackpressurePolicy::kBlock};
  /// Not read: kept only so that existing configs that set it compile.
  RuntimeMode runtime_mode{RuntimeMode::kEvents};
  /// Scheduler worker count (0 = hardware concurrency), clamped to the
  /// node count. The pool size never changes the sampling output — only
  /// how many nodes make progress at once.
  std::size_t event_workers{0};
  /// Optional: called from the root's task for every sampled bundle the
  /// root adds to Θ (e.g. to republish results into a flowqueue topic).
  std::function<void(const core::SampledBundle&)> root_tap{};

  /// §IV-B live feedback: the root observes its window's confidence
  /// interval, an AdaptiveController proposes the next end-to-end
  /// fraction, and the tree publishes policy epoch N+1 on the control
  /// plane — all without stopping the node workers, which pick the new
  /// epoch up at their next interval boundary.
  struct AdaptiveFeedback {
    bool enabled{false};
    core::AdaptiveConfig controller{};
    /// Root intervals between mid-window observations of Θ. 0 == observe
    /// only at close_window() (window-synchronous: with a drain() before
    /// each close the whole loop is deterministic); > 0 additionally
    /// observes the running window every N completed root intervals,
    /// adapting mid-stream.
    std::size_t intervals_per_observation{0};
    /// Confidence level for mid-window observations. Keep it equal to
    /// the confidence passed to close_window(): the controller's target
    /// relative error is defined against ONE interval width, and mixing
    /// sigma levels would give the loop two different fixed points.
    double confidence{stats::kConfidence95};
  };
  AdaptiveFeedback adaptive{};

  /// Observability (optional, unowned; must outlive the tree). Per node
  /// "tree/L{layer}/n{i}" (root: "tree/root"): an exec-latency histogram,
  /// an input-occupancy histogram, item/interval counters, and per-edge
  /// channel depth/block/drop stats; tree-wide "tree/interval_latency_us"
  /// (push_interval to root completion), window, policy and fault stats,
  /// and the scheduler's "tree/sched/..." stats. A `tracer` additionally
  /// gives every node its own track with stage-execute / root-merge spans
  /// (plus window-close and policy-publish events on "tree/control"),
  /// each annotated with the resolved policy_epoch. Instrumentation reads
  /// clocks and counters only — sampling output is bit-identical with or
  /// without it.
  obs::StatsRegistry* stats{nullptr};
  obs::Tracer* tracer{nullptr};

  /// Built-in chaos driver: every `kill_every_n_intervals` completed root
  /// intervals the tree kills one random non-root node (optionally
  /// capturing its state first), leaves it dead for `dead_intervals` root
  /// intervals, then revives it (optionally restoring the capture). Runs
  /// entirely on the root worker inside complete_root_interval, so it is
  /// deterministic for a fixed seed and interval schedule. Intervals that
  /// reach a dead node are swallowed into lost_weight/lost_items — the
  /// surviving sub-streams stay exact per Eq. 8 and the window result is
  /// flagged degraded.
  struct ChaosConfig {
    bool enabled{false};
    /// Root intervals between kills (>= 1 when enabled).
    std::size_t kill_every_n_intervals{8};
    /// Root intervals a victim stays dead before its scheduled revival.
    std::size_t dead_intervals{2};
    /// Capture the victim's stage state at kill and restore it at
    /// revival. Off = the revived node restarts from its constructed
    /// state (cold restart; weights re-derive from remembered carry).
    bool checkpoint_restore{true};
    std::uint64_t seed{42};
  };
  ChaosConfig chaos{};
};

class ConcurrentEdgeTree {
 public:
  /// Builds the tree, registers one scheduler task per node and starts
  /// the scheduler's workers immediately.
  explicit ConcurrentEdgeTree(ConcurrentTreeConfig config);

  ConcurrentEdgeTree(const ConcurrentEdgeTree&) = delete;
  ConcurrentEdgeTree& operator=(const ConcurrentEdgeTree&) = delete;

  ~ConcurrentEdgeTree();

  [[nodiscard]] std::size_t leaf_count() const noexcept;
  [[nodiscard]] std::size_t node_count() const noexcept;
  /// OS threads the node tasks share (the resolved event_workers).
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return scheduler_->worker_count();
  }

  /// Feeds one interval of source data (one item vector per leaf).
  /// Under kBlock this blocks when the leaves are saturated; under
  /// kDropNewest it may shed the interval at full leaf channels.
  void push_interval(const std::vector<std::vector<Item>>& items_per_leaf);

  /// Blocks until every pushed interval has been folded into the root's
  /// Θ. Only meaningful under kBlock (lossless): with drops in play some
  /// intervals never reach the root and stop() is the only full barrier.
  void drain();

  /// Closes the source channels, waits until the close has cascaded to
  /// the root, and joins the scheduler's workers. All pushed data still
  /// in flight is flushed through the tree first. Idempotent.
  void stop();

  /// drain()s (kBlock only — under kDropNewest a shed interval would make
  /// a full drain wait forever, so the window closes over whatever has
  /// reached the root), runs the window query over Θ, clears Θ.
  core::ApproxResult close_window(double confidence = stats::kConfidence95);

  /// Query without clearing. Safe while workers run (Θ is locked), but
  /// the result is a snapshot of whatever has reached the root so far.
  [[nodiscard]] core::ApproxResult run_query(
      double confidence = stats::kConfidence95) const;

  /// Root Θ. Call only when quiescent (after drain() or stop()).
  [[nodiscard]] const core::ThetaStore& theta() const noexcept {
    return theta_;
  }

  struct TreeMetrics {
    std::uint64_t items_ingested{0};
    std::uint64_t items_at_root{0};
    std::uint64_t intervals_pushed{0};
    std::uint64_t intervals_completed{0};  // by the root
    std::uint64_t messages_dropped{0};     // kDropNewest sheds, all edges
    std::vector<std::uint64_t> items_forwarded_per_layer;
  };
  /// Interval/ingest counters are always consistent (taken under lock);
  /// items_forwarded_per_layer reads the node stages' plain counters, so
  /// like theta() it is exact only when quiescent (after drain()/stop()).
  /// Polling it mid-flight races with the node workers.
  [[nodiscard]] TreeMetrics metrics() const;

  [[nodiscard]] core::EngineKind engine() const noexcept {
    return config_.tree.engine;
  }

  // --- live control plane (§IV-B) ---------------------------------------

  /// The policy store every stage resolves at its interval boundaries.
  /// Non-null when the config carried one or adaptive feedback is on.
  [[nodiscard]] const std::shared_ptr<core::ControlPlane>& control_plane()
      const noexcept {
    return config_.tree.control_plane;
  }
  /// Current policy epoch (0 without a control plane).
  [[nodiscard]] core::PolicyEpoch policy_epoch() const noexcept {
    return config_.tree.control_plane != nullptr
               ? config_.tree.control_plane->epoch()
               : 0;
  }
  /// Publishes a new end-to-end fraction as epoch N+1 (manual feedback —
  /// the adaptive loop does this on its own when enabled). Requires a
  /// control plane. Safe while workers run.
  core::PolicyEpoch publish_fraction(double end_to_end);
  /// The adaptive controller's current end-to-end fraction (the config's
  /// initial fraction until the first observation; requires adaptive
  /// feedback enabled, otherwise returns the frozen config fraction).
  [[nodiscard]] double adaptive_fraction() const;
  /// Fraction trajectory of the adaptive controller (empty when feedback
  /// is disabled). Snapshot by value: the controller lives on the root's
  /// feedback path, so the history may grow concurrently.
  [[nodiscard]] std::vector<double> adaptive_history() const;

  /// Chaos/recovery hook: wakes every node task spuriously (see
  /// JobScheduler::notify_all). Correctness must not depend on wake
  /// precision, so a storm of kicks may change nothing but wasted cycles
  /// — the property the chaos tests hammer on. Safe while workers run,
  /// and harmless after stop().
  void kick();

  // --- fault injection & recovery ----------------------------------------

  /// Marks node (layer, index) dead. Its task keeps draining channels
  /// (so the tree never deadlocks under kBlock) but swallows every
  /// interval into lost_weight/lost_items instead of sampling, and
  /// forwards empty interval messages so parents stay aligned. With
  /// `capture` the task snapshots the stage's state (reservoir, RNG,
  /// weight carry, epoch) at its next interval — the capture revive_node
  /// can restore. Safe while workers run; the root cannot be killed
  /// (kill the whole tree instead). Addressing: layer == layer_widths
  /// indexes the root, same convention as core::EdgeTree.
  void kill_node(std::size_t layer, std::size_t index, bool capture = true);

  /// Brings a killed node back. With `restore` (and a capture available)
  /// the task restores the captured stage state before its next
  /// interval — continuing the reservoir streak bit-identically; without
  /// it the node restarts cold from its constructed state.
  void revive_node(std::size_t layer, std::size_t index,
                   bool restore = true);

  [[nodiscard]] bool node_dead(std::size_t layer, std::size_t index) const;

  struct FaultMetrics {
    std::uint64_t kills{0};
    std::uint64_t revives{0};
    std::uint64_t lost_items{0};
    double lost_weight{0.0};
  };
  [[nodiscard]] FaultMetrics fault_metrics() const;

  // --- checkpoint / restore ----------------------------------------------

  /// Serializes the full tree state (stages, Θ, control plane, fault
  /// accounting) in the SAME byte layout as core::EdgeTree::checkpoint,
  /// so snapshots are interchangeable between the sequential and
  /// concurrent executions. Call only when quiescent (after drain() with
  /// no concurrent push, or before the first push): a mid-flight snapshot
  /// would tear across layers that are pipelining different intervals.
  [[nodiscard]] core::Checkpoint checkpoint() const;

  /// Restores a kTree checkpoint (from this class or core::EdgeTree) into
  /// this tree. Same quiescence requirement as checkpoint(). Interval
  /// sequence numbers restart at 0 — the channel protocol is private to
  /// one run; only sampling state carries over.
  void restore(const core::Checkpoint& checkpoint);

 private:
  /// Per-node task state. Only the one worker currently running the
  /// node's task touches it (the JobScheduler's state machine guarantees
  /// a task never runs on two workers at once), so no locks: the hand-off
  /// between successive runs synchronises through the scheduler.
  struct EventState {
    JobScheduler::TaskId task{0};
    /// Interval currently being assembled.
    std::int64_t interval{0};
    /// Next input (child index) to lend to Ψ for `interval`. Lending
    /// only at the cursor — never whatever happens to be ready — keeps Ψ
    /// in child order, and therefore every RNG draw bit-identical to the
    /// sequential EdgeTree.
    std::size_t gather_cursor{0};
    /// Ψ gathered so far for `interval`, in child order. Its bundles are
    /// on loan from the messages in `inbox`.
    std::vector<core::ItemBundle> psi;
    /// Per child, the message it sent that has not been recycled yet:
    /// lent to `psi` when it is for `interval`, held back when it is for
    /// a LATER interval (the child's message for this one was shed).
    std::vector<std::optional<IntervalMessage>> inbox;
    std::vector<bool> finished;
    /// Output built but not yet accepted by a full downstream channel
    /// (kBlock only); re-offered on the next writable wake.
    std::optional<IntervalMessage> pending_out;
    bool done{false};
  };

  /// Per-node kill/revive state. The atomics are the cross-thread
  /// surface: kill_node/revive_node (any thread) flip request flags, and
  /// the node's own task — the only code ever touching the stage — acts
  /// on them at its next interval boundary. `saved` is written by the
  /// task (self-capture) and read by the task (restore), with
  /// `mutex` guarding against a concurrent external checkpoint() reading
  /// it; the dead flag's release/acquire pairing orders the request flags.
  struct FaultState {
    std::atomic<bool> dead{false};
    std::atomic<bool> capture_requested{false};
    std::atomic<bool> restore_requested{false};
    std::mutex mutex;
    std::optional<core::Checkpoint> saved;
  };

  struct NodeRuntime {
    std::unique_ptr<core::PipelineStage> stage;
    std::vector<BoundedChannel<IntervalMessage>*> inputs;
    BoundedChannel<IntervalMessage>* output{nullptr};  // null at the root
    std::size_t layer{0};
    /// unique_ptr so NodeRuntime stays movable (FaultState holds a mutex
    /// and atomics). Allocated for every node at construction.
    std::unique_ptr<FaultState> fault;
    EventState event;
    // Per-node observability sinks, resolved once at construction (null /
    // kNoTrack when unbound — the task's hooks then cost one null check,
    // and APPROXIOT_NO_STATS compiles even that away).
    obs::Histogram* exec_us{nullptr};
    obs::LinearHistogram* occupancy{nullptr};
    obs::Counter* items_in{nullptr};
    obs::Counter* intervals{nullptr};
    obs::TrackId track{obs::ScopedSpan::kNoTrack};
  };

  /// Task body: makes every kind of progress possible (flush parked
  /// output, gather, execute, repeat) and returns when blocked; channel
  /// readiness waiters re-queue it via the scheduler.
  void event_pump(NodeRuntime& node);
  /// Runs the node's stage over the assembled Ψ (root Θ fold, tap,
  /// interval completion, exec spans). Root: returns nullopt after
  /// folding into Θ; non-root: returns the message to forward upstream.
  std::optional<IntervalMessage> execute_node_interval(
      NodeRuntime& node, std::int64_t interval,
      const std::vector<core::ItemBundle>& psi);
  /// Files child `c`'s message in `inbox[c]`; a stale one (an earlier
  /// interval, which cannot happen) goes straight back for reuse.
  static void file_message(NodeRuntime& node, std::size_t c,
                           IntervalMessage&& msg, std::int64_t interval,
                           std::vector<std::optional<IntervalMessage>>& inbox);
  /// True once input `c` is resolved for the interval being
  /// gathered — a message filed in the inbox, or end-of-stream. When `c`
  /// has nothing yet, returns false, and with `park` the consumer sleeps
  /// on `c` (its next push wakes the task); without, it only looked.
  static bool resolve_input(NodeRuntime& node, std::size_t c, bool park);
  /// Appends `msg`'s bundles to `psi` by swapping buffers (O(1) each).
  static void lend(IntervalMessage& msg, std::vector<core::ItemBundle>& psi);
  /// After `interval` ran: takes the lent buffers back from `psi` (which
  /// ends empty) and recycles each lent message into its channel.
  static void return_lent(NodeRuntime& node, std::int64_t interval,
                          std::vector<std::optional<IntervalMessage>>& inbox,
                          std::vector<core::ItemBundle>& psi);
  /// Builds the scheduler, registers one task per node, wires channel
  /// readiness to task wakes, and starts the workers.
  void start_scheduler();
  void complete_root_interval(std::int64_t interval);
  /// Registers per-node/per-edge stats and trace tracks; called from the
  /// constructor before any worker starts (registration is not
  /// synchronised against the node tasks).
  void bind_observability();
  [[nodiscard]] std::string node_scope(std::size_t layer,
                                       std::size_t index) const;
  /// Timestamp source for spans/latency: tracer-relative when tracing
  /// (span timestamps must share the tracer's epoch), steady-clock
  /// microseconds otherwise. Durations are valid on either.
  [[nodiscard]] std::int64_t obs_now_us() const;
  /// Feeds one observed result into the controller and publishes a new
  /// epoch when the proposed fraction moved. Called from the root worker
  /// (mid-window observations) and from close_window() callers.
  void observe_and_publish(const core::ApproxResult& result);

  [[nodiscard]] NodeRuntime& node_at(std::size_t layer, std::size_t index);
  [[nodiscard]] const NodeRuntime& node_at(std::size_t layer,
                                           std::size_t index) const;
  /// Dead-node interval path: swallows Ψ into the lost accounting (the
  /// caller does the optional self-capture). Runs in the node's own
  /// task.
  void absorb_dead_interval(const std::vector<core::ItemBundle>& psi);
  /// Chaos driver step; runs in the root task only (complete_root_interval
  /// is only ever called from there, and a task never runs on two workers
  /// at once), so its state needs no lock.
  void chaos_step();

  ConcurrentTreeConfig config_;

  /// Observability sinks (config_.stats / config_.tracer, or null).
  obs::StatsRegistry* stats_{nullptr};
  obs::Tracer* tracer_{nullptr};
  obs::TrackId control_track_{obs::ScopedSpan::kNoTrack};
  obs::Counter* windows_closed_{nullptr};
  obs::Histogram* interval_latency_us_{nullptr};

  /// §IV-B loop state; adaptive_mutex_ serialises the root worker's
  /// mid-window observations against close_window() observations.
  mutable std::mutex adaptive_mutex_;
  std::unique_ptr<core::AdaptiveController> controller_;
  std::size_t intervals_since_observation_{0};

  std::vector<std::unique_ptr<BoundedChannel<IntervalMessage>>> channels_;
  std::vector<BoundedChannel<IntervalMessage>*> leaf_inputs_;
  // nodes_[layer][index]; the root is the single node of the last layer.
  std::vector<std::vector<NodeRuntime>> nodes_;

  core::ThetaStore theta_;
  mutable std::mutex theta_mutex_;
  /// The root stage's output, reused every interval (root worker only).
  std::vector<core::SampledBundle> root_outputs_;

  /// Serialises whole push_interval calls: interval seqs must reach the
  /// leaf channels in assignment order or receivers would mistake a
  /// reordered interval for a dropped one. Separate from state_mutex_ so
  /// a producer blocked on a full leaf channel does not stall the root's
  /// completion bookkeeping.
  std::mutex push_mutex_;
  mutable std::mutex state_mutex_;
  std::condition_variable drained_cv_;
  std::int64_t next_interval_{0};
  std::uint64_t items_ingested_{0};
  std::uint64_t items_at_root_{0};
  std::uint64_t intervals_completed_{0};
  /// Push time per interval still in flight; kept only while
  /// interval_latency_us_ is bound.
  std::map<std::int64_t, std::int64_t> push_times_us_;
  bool stopped_{false};
  /// Fault accounting, guarded by state_mutex_ (written by whichever
  /// worker owns a dead node's interval, read by close_window/run_query).
  double lost_weight_{0.0};
  std::uint64_t lost_items_{0};
  bool window_degraded_{false};
  /// Cumulative across windows (fault_metrics); the per-window pair above
  /// resets at close_window like EdgeTree's.
  double total_lost_weight_{0.0};
  std::uint64_t total_lost_items_{0};
  std::uint64_t kills_{0};
  std::uint64_t revives_{0};
  /// Chaos driver state; root-worker-only (see chaos_step).
  Rng chaos_rng_{0};
  std::size_t chaos_since_kill_{0};
  /// (layer, index, revive-at-completed-interval-count) per dead victim.
  std::vector<std::tuple<std::size_t, std::size_t, std::uint64_t>>
      chaos_pending_;
  /// The root task observed end-of-stream (all closes cascaded
  /// through); guarded by state_mutex_, signalled on drained_cv_.
  bool root_finished_{false};

  // Last member: its destructor joins every worker before channels and
  // stages die.
  std::unique_ptr<JobScheduler> scheduler_;
};

}  // namespace approxiot::runtime
