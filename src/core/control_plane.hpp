// ControlPlane (§IV-B, live): versioned sampling policies for every
// runtime.
//
// The paper's adaptive feedback "refine[s] the sampling parameters at all
// layers" when the root's error bound exceeds the user's budget. The
// original implementation froze each node's budget at construction; the
// control plane replaces that with an atomically-swappable *policy
// snapshot* nodes read at interval boundaries:
//
//   SamplingPolicy — immutable (epoch, end-to-end budget, WHSamp knobs).
//   ControlPlane   — publishes snapshots; epoch strictly increases. The
//                    read path is one atomic shared_ptr load — workers
//                    never block on a publisher, so a runtime can adopt
//                    epoch N+1 mid-stream without stopping.
//   PolicyHandle   — a node's read-only view: plane + a scope describing
//                    how the node derives its *local* budget from the
//                    end-to-end policy (per-layer root, end-to-end at
//                    snapshot leaves, hold elsewhere).
//
// Versioning contract: every published snapshot gets epoch = previous+1;
// nodes stamp each SampledBundle with the epoch they resolved for that
// interval, so the root's estimators can attribute a window's error bound
// to the policy generation(s) that produced the samples. A plane left at
// epoch 0 is behaviour-neutral: resolving the initial policy yields
// exactly the budget the node was constructed with (bit-identity pinned
// by the runtime equivalence tests).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

#include "core/cost_function.hpp"
#include "core/whsamp.hpp"

namespace approxiot::core {

/// Monotonic version of a published sampling policy. Epoch 0 is the
/// policy in force at construction time.
using PolicyEpoch = std::uint64_t;

/// One immutable policy snapshot. `budget.sampling_fraction` is the
/// END-TO-END target fraction; PolicyHandle scopes it per node. Only the
/// fraction is projected onto nodes — the other ResourceBudget fields
/// are per-node capacity limits that resolve() leaves untouched (they
/// are recorded here so a snapshot fully describes the configuration).
struct SamplingPolicy {
  PolicyEpoch epoch{0};
  ResourceBudget budget{};
  /// WHSamp knobs recorded with the policy so a snapshot is a complete
  /// description of the sampling configuration. Structural: samplers are
  /// built from the epoch-0 values; a live epoch cannot swap the
  /// reservoir algorithm or allocation policy of existing samplers.
  WHSampConfig whsamp{};
};

/// Atomically-swappable, versioned policy store shared by every node of a
/// runtime. Publishing never blocks readers; reading never blocks
/// publishers.
class ControlPlane {
 public:
  ControlPlane();
  /// `initial` becomes epoch 0 regardless of the epoch it carries.
  explicit ControlPlane(SamplingPolicy initial);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Lock-free read of the current snapshot (one atomic shared_ptr load).
  /// The snapshot is immutable; hold it only for the current interval.
  [[nodiscard]] std::shared_ptr<const SamplingPolicy> snapshot()
      const noexcept;

  /// Epoch of the current snapshot.
  [[nodiscard]] PolicyEpoch epoch() const noexcept;

  /// Publishes `next` as the new current policy. The epoch is assigned by
  /// the plane (current + 1) — callers cannot skip or reuse versions.
  /// Returns the assigned epoch. Thread-safe against concurrent
  /// publishers and readers.
  PolicyEpoch publish(SamplingPolicy next);

  /// Convenience: republish the current policy with a new end-to-end
  /// sampling fraction (the adaptive controller's output).
  PolicyEpoch publish_fraction(double end_to_end_fraction);

  /// Checkpoint restore: installs `policy` with its epoch taken VERBATIM
  /// instead of current+1, so a restored runtime resumes at the exact
  /// epoch its checkpoint recorded (nodes stamp outputs with the resolved
  /// epoch — bit-identity needs the numbers to match, not just the
  /// budgets). Epochs still never move backwards: a target epoch below
  /// the current one throws std::invalid_argument, and restoring the
  /// current epoch is a no-op (idempotent restore). Returns the epoch in
  /// force afterwards.
  PolicyEpoch restore_policy(SamplingPolicy policy);

  /// Observation hook invoked after every publish (either path), with the
  /// policy as stored — epoch already assigned. Runs under the publish
  /// mutex, so hooks see epochs in order and must stay cheap (the
  /// observability layer records an epoch-publish event and counters
  /// here). One hook; rebinding replaces it. Bind before publishers run —
  /// set_publish_hook does not synchronise with in-flight publish calls.
  using PublishHook = std::function<void(const SamplingPolicy&)>;
  void set_publish_hook(PublishHook hook) { publish_hook_ = std::move(hook); }

 private:
  /// Shared tail of both publish paths; caller holds publish_mutex_.
  PolicyEpoch publish_locked(SamplingPolicy next);

  /// Serialises publishers so epochs are dense; readers never take it.
  std::mutex publish_mutex_;
  /// Every snapshot ever published, in epoch order. Entries are immutable
  /// once inserted and a deque never relocates them, so readers copy the
  /// current shared_ptr through `current_` without synchronising with
  /// publishers. The plane retains ~100 bytes per epoch for its lifetime
  /// — trivial at adaptation cadence (a handful of epochs per run).
  ///
  /// Not std::atomic<std::shared_ptr>: libstdc++ implements that with an
  /// embedded lock bit whose hand-rolled spinning ThreadSanitizer cannot
  /// see through, so a perfectly-synchronised publish/snapshot pair still
  /// reported a race a few percent of runs. This layout is equivalent
  /// (epoch-ordered release-publish of an immutable record) and every
  /// synchronising edge is a plain atomic TSan models exactly.
  std::deque<std::shared_ptr<const SamplingPolicy>> retained_;
  std::atomic<const std::shared_ptr<const SamplingPolicy>*> current_;
  PublishHook publish_hook_;
};

/// How one node projects the end-to-end policy onto its local budget.
struct PolicyScope {
  enum class Rule {
    /// fraction^(1/sampling_layers) — WHS/SRS layers of a tree, so the
    /// product across layers matches the end-to-end target.
    kPerLayer,
    /// The end-to-end fraction verbatim — snapshot leaves, single nodes.
    kEndToEnd,
    /// Keep the node's current budget; only the epoch advances —
    /// snapshot non-leaf layers (decimation must not compound).
    kHold,
  };
  Rule rule{Rule::kPerLayer};
  /// Divisor for kPerLayer (edge layers + root of the hosting tree).
  std::size_t sampling_layers{1};
};

/// What a node resolved at one interval boundary.
struct PolicyDecision {
  PolicyEpoch epoch{0};
  ResourceBudget budget{};
};

/// A node's read-only view of a ControlPlane. Default-constructed handles
/// are unbound: resolve() then returns the budget the caller passed in,
/// at epoch 0 — exactly the frozen pre-control-plane behaviour.
class PolicyHandle {
 public:
  PolicyHandle() = default;
  PolicyHandle(std::shared_ptr<const ControlPlane> plane, PolicyScope scope);

  [[nodiscard]] bool bound() const noexcept { return plane_ != nullptr; }

  /// Resolves the node-local budget for the next interval. `current` is
  /// the node's budget as of this call; kHold (and unbound handles)
  /// return it unchanged. Wait-free: one atomic snapshot load.
  [[nodiscard]] PolicyDecision resolve(const ResourceBudget& current) const;

  /// Current epoch (0 when unbound).
  [[nodiscard]] PolicyEpoch epoch() const noexcept;

  [[nodiscard]] const PolicyScope& scope() const noexcept { return scope_; }

 private:
  std::shared_ptr<const ControlPlane> plane_{};
  PolicyScope scope_{};
};

}  // namespace approxiot::core
