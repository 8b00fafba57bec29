// Message types exchanged between nodes in the logical tree.
//
// ItemBundle is the paper's (W^in, items) pair consumed from Ψ
// (Algorithm 2 line 7); SampledBundle is the (W^out, sample) pair a node
// produces (line 10) and either forwards to its parent or stores in Θ.
//
// The sample payload is a StratifiedBatch — one contiguous arena of items
// plus a stratum directory — not a map of vectors. Flattening for
// transmission is therefore free on the rvalue path: the arena already
// holds the items in stratum order, so to_bundle() on an rvalue moves one
// vector instead of copying every item.
#pragma once

#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/stratified.hpp"
#include "core/weight_map.hpp"

namespace approxiot::core {

/// Input to WHSamp: a weight map plus items possibly spanning many
/// sub-streams. Sub-streams absent from `w_in` are interpreted via the
/// node's remembered weights (Fig. 3 rule), falling back to 1 at sources.
struct ItemBundle {
  WeightMap w_in;
  std::vector<Item> items;
  /// Policy epoch of the node that produced this bundle (0 at sources and
  /// on runtimes without a control plane). Informational in transit: a
  /// receiving node stamps its *own* resolved epoch on its output.
  std::uint64_t policy_epoch{0};

  [[nodiscard]] bool empty() const noexcept { return items.empty(); }
};

/// Output of WHSamp: per-sub-stream updated weights and sampled items.
struct SampledBundle {
  WeightMap w_out;
  StratifiedBatch sample;
  /// Policy epoch the producing node resolved for the interval that
  /// sampled this bundle (§IV-B versioning): the root's estimators use it
  /// to attribute a window's error bound to the policy generation(s) that
  /// shaped the samples. 0 == the frozen construction-time configuration.
  std::uint64_t policy_epoch{0};

  /// O(1): the arena size is the item count.
  [[nodiscard]] std::size_t item_count() const noexcept {
    return sample.item_count();
  }

  /// Empties the bundle but keeps its buffers (arena, directory, weight
  /// table), so a producer can sample into it again without allocating.
  void clear() noexcept {
    w_out.clear();
    sample.clear();
    policy_epoch = 0;
  }

  /// Lends this bundle to a parent as its (W^in, items) pair, or takes the
  /// buffers back: swaps W^out with `in.w_in`, the arena with `in.items`
  /// and the epochs. O(1), no item copies. The directory is dropped, so a
  /// bundle that has lent its buffers is spent until it is sampled into
  /// again; swapping twice restores both sides' buffers.
  void swap_buffers(ItemBundle& in) noexcept {
    w_out.swap(in.w_in);
    sample.swap_items(in.items);
    std::swap(policy_epoch, in.policy_epoch);
  }

  /// Flattens into an ItemBundle for transmission to the parent node.
  /// Items appear stratum by stratum in ascending sub-stream id order —
  /// exactly the concatenation the old map-of-vectors produced.
  [[nodiscard]] ItemBundle to_bundle() const& {
    ItemBundle out;
    out.w_in = w_out;
    out.items = sample.items();
    out.policy_epoch = policy_epoch;
    return out;
  }

  /// Forwarding path: the bundle is spent, so the arena and weight map
  /// move — zero item copies.
  [[nodiscard]] ItemBundle to_bundle() && {
    ItemBundle out;
    out.w_in = std::move(w_out);
    out.items = sample.release_items();
    out.policy_epoch = policy_epoch;
    return out;
  }
};

/// Slot `n` of a reused output vector, appended when the vector holds
/// only n bundles. Stages that overwrite a caller-owned output vector
/// fill slots 0, 1, ... this way — reusing last interval's bundles and
/// their buffers — and then truncate to the number they produced.
inline SampledBundle& output_slot(std::vector<SampledBundle>& out,
                                  std::size_t n) {
  if (n == out.size()) out.emplace_back();
  return out[n];
}

}  // namespace approxiot::core
