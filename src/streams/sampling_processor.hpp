// The ApproxIoT sampling module as a user-defined stream processor
// (§IV-B module II) and its SRS counterpart.
//
// SamplingProcessor buffers decoded (W^in, items) bundles per interval
// (scheduled punctuation = the node's interval length), and on punctuation
// runs Algorithm 1 over the buffered Ψ and forwards the encoded
// (W^out, sample) bundles downstream — exactly the per-node behaviour of
// Algorithm 2 lines 2-19, expressed in the Processor API.
//
// Punctuation-time sampling runs on the caller's thread, inside the
// punctuate() call, with the node's own WHSampler, so the TopologyDriver's
// deterministic single-threaded record routing is preserved.
//
// Live policy (§IV-B): when the NodeConfig carries a bound PolicyHandle,
// the processor applies the control plane AT PUNCTUATION TIME — the
// buffered Ψ of one interval is always sampled under a single policy
// epoch (the snapshot current when the punctuation fires), and the
// forwarded records carry that epoch in their wire payloads. Records
// buffered before a publish and flushed after it are sampled under the
// NEW epoch: punctuation is the interval boundary, and interval
// boundaries are where policies take effect everywhere in this system.
#pragma once

#include <memory>
#include <vector>

#include "core/node.hpp"
#include "core/srs_node.hpp"
#include "core/wire.hpp"
#include "streams/processor.hpp"

namespace approxiot::streams {

class SamplingProcessor final : public Processor {
 public:
  explicit SamplingProcessor(core::NodeConfig config);

  void init(ProcessorContext& context) override;
  void process(const flowqueue::Record& record) override;
  void punctuate(SimTime now) override;
  void close() override;

  [[nodiscard]] const core::NodeMetrics& metrics() const noexcept {
    return node_.metrics();
  }

  /// Policy epoch applied at the most recent punctuation flush (0 when
  /// the NodeConfig carried no control plane).
  [[nodiscard]] core::PolicyEpoch policy_epoch() const noexcept {
    return node_.policy_epoch();
  }

 private:
  void flush(SimTime boundary);

  core::SamplingNode node_;
  ProcessorContext* context_{nullptr};
  std::vector<core::ItemBundle> psi_;
  /// Reused output bundles (process_interval overwrites them).
  std::vector<core::SampledBundle> outputs_;
  SimTime interval_;
  std::uint64_t decode_failures_{0};
};

/// SRS sampling processor: same plumbing, coin-flip sampling. Forwards
/// immediately (SRS needs no interval buffering — the paper's Fig. 9
/// observation that SRS latency is window-independent).
class SrsProcessor final : public Processor {
 public:
  explicit SrsProcessor(core::SrsNodeConfig config);

  void init(ProcessorContext& context) override;
  void process(const flowqueue::Record& record) override;

  [[nodiscard]] const core::NodeMetrics& metrics() const noexcept {
    return node_.metrics();
  }

 private:
  core::SrsNode node_;
  ProcessorContext* context_{nullptr};
  /// Reused one-pair Ψ and output bundles.
  std::vector<core::ItemBundle> psi_;
  std::vector<core::SampledBundle> outputs_;
  std::uint64_t decode_failures_{0};
};

}  // namespace approxiot::streams
