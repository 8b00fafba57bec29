// Checkpoint: versioned, serializable snapshots of a runtime's sampling
// state — reservoir RNG streams, remembered weights (Fig. 3), the root's
// Θ window, and the resolved policy epoch (§IV-B).
//
// The restore contract is BIT-IDENTITY, not approximate resumption: a
// tree restored from a checkpoint and fed the remaining input produces
// the same future RNG draws, the same Θ, the same query answers, and the
// same wire bytes as the uninterrupted run. That is only possible because
// every piece of cross-interval state in the sampling path is explicit
// and enumerable: the xoshiro256** words (plus the gaussian cache), the
// per-node WeightMap, the cost-function EWMA, the SRS counters, the
// snapshot node's interval phase, and the policy epoch — everything else
// (reservoir buffers, stratification arenas) is rearmed from scratch each
// call and carries nothing forward.
//
// Format: one flat byte stream over the flowqueue serde primitives
// (varint / fixed64 / IEEE double), headed by a magic byte (0xC4), a
// format version, and a KIND byte distinguishing whole-tree, single-stage
// and flowqueue-source checkpoints. Tree checkpoints embed a topology
// fingerprint (engine, layer widths, seed, interval, reservoir algorithm)
// and refuse to restore into a tree built differently — a checkpoint is a
// continuation of one specific configuration, not a migration tool. The
// byte layout is written identically by EdgeTree and ConcurrentEdgeTree,
// so a snapshot taken on the sequential reference restores into the
// concurrent runtime and vice versa.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "flowqueue/serde.hpp"

namespace approxiot::core {

class ControlPlane;
struct EdgeTreeConfig;
class PipelineStage;
class ThetaStore;
class WeightMap;

/// A serialized snapshot. Opaque bytes on purpose: everything consumers
/// can do with one goes through restore()/CheckpointReader, so the layout
/// can evolve behind the version byte.
struct Checkpoint {
  std::vector<std::uint8_t> bytes;

  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return bytes.size();
  }
  [[nodiscard]] bool empty() const noexcept { return bytes.empty(); }
};

/// Thrown on malformed, truncated, or mismatched checkpoints. Restoring
/// is an explicit administrative action, so a corrupt snapshot is a hard
/// error, never a silent partial restore.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What a checkpoint snapshots. The byte is part of the wire format.
enum class CheckpointKind : std::uint8_t {
  kTree = 1,    ///< a whole Edge-/ConcurrentEdgeTree
  kStage = 2,   ///< one pipeline stage (node-level kill/restore)
  kSource = 3,  ///< a FlowQueueSource's replay cursor
};

/// Append-only typed writer. Components serialize themselves through the
/// put_* helpers; the header (magic, version, kind) is written by the
/// constructor so every checkpoint is self-describing.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(CheckpointKind kind);

  void put_u64(std::uint64_t v) { encoder_.put_varint(v); }
  /// Two's-complement fixed64 — safe for negative timestamps.
  void put_i64(std::int64_t v) {
    encoder_.put_fixed64(static_cast<std::uint64_t>(v));
  }
  void put_double(double v) { encoder_.put_double(v); }
  void put_bool(bool v) { encoder_.put_varint(v ? 1 : 0); }
  void put_string(const std::string& s) { encoder_.put_string(s); }

  void put_rng(const Rng::State& state);
  void put_weight_map(const WeightMap& weights);
  void put_theta(const ThetaStore& theta);

  [[nodiscard]] Checkpoint finish() { return Checkpoint{encoder_.take()}; }

 private:
  flowqueue::Encoder encoder_;
};

/// Cursor-based typed reader; the mirror of CheckpointWriter. Every
/// getter throws CheckpointError on truncation, and the constructor
/// validates magic, version, and kind up front.
class CheckpointReader {
 public:
  CheckpointReader(const Checkpoint& checkpoint, CheckpointKind expected);

  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64();
  [[nodiscard]] double get_double();
  [[nodiscard]] bool get_bool() { return get_u64() != 0; }
  [[nodiscard]] std::string get_string();

  [[nodiscard]] Rng::State get_rng();
  void get_weight_map(WeightMap& weights);
  void get_theta(ThetaStore& theta);

  /// Asserts the whole payload was consumed — trailing bytes mean the
  /// reader and writer disagree about the format.
  void expect_exhausted() const;

 private:
  flowqueue::Decoder decoder_;
};

// --- stage-level checkpoints (node kill/restore) ---------------------------

/// Snapshots one stage's cross-interval state as a standalone checkpoint.
[[nodiscard]] Checkpoint checkpoint_stage(const PipelineStage& stage);

/// Restores a checkpoint_stage() snapshot into a stage of the same engine
/// (the per-engine payload tag is validated; restoring a WHS snapshot
/// into an SRS stage throws CheckpointError).
void restore_stage(PipelineStage& stage, const Checkpoint& checkpoint);

// --- shared tree sections --------------------------------------------------
// EdgeTree and ConcurrentEdgeTree write byte-identical checkpoints by
// composing these sections in the same order: fingerprint, control plane,
// stages (layer-major, root last), theta, counters.

void write_tree_fingerprint(CheckpointWriter& writer,
                            const EdgeTreeConfig& config);
/// Throws CheckpointError unless the checkpointed topology matches
/// `config` exactly (engine, widths, seed, interval, reservoir algorithm,
/// allocation policy).
void verify_tree_fingerprint(CheckpointReader& reader,
                             const EdgeTreeConfig& config);

/// Records the plane's current epoch and end-to-end budget (null plane ==
/// "no control plane", also validated on restore).
void write_control_plane(CheckpointWriter& writer, const ControlPlane* plane);
/// Re-installs the checkpointed policy AT ITS RECORDED EPOCH via
/// ControlPlane::restore_policy, so post-restore bundles carry the same
/// epoch stamps the uninterrupted run would have produced.
void restore_control_plane(CheckpointReader& reader, ControlPlane* plane);

}  // namespace approxiot::core
