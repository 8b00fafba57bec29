// ThetaStore: the root node's Θ (Algorithm 2 line 16) — the collection of
// (W^out, sample) pairs accumulated within one computation window, grouped
// by sub-stream so the estimators can evaluate Eq. 3 directly.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "core/batch.hpp"

namespace approxiot::core {

/// One (weight, items) pair for a single sub-stream, as seen at the root.
struct WeightedSample {
  double weight{1.0};
  std::vector<Item> items;
};

class ThetaStore {
 public:
  /// Splits a SampledBundle into per-sub-stream (weight, items) pairs and
  /// appends them. Pairs with no items are dropped: they contribute
  /// nothing to any estimator. The bundle's policy epoch is folded into
  /// the window's epoch span so the query result can attribute its error
  /// bound to the policy generation(s) that produced the samples.
  void add(const SampledBundle& bundle);

  /// Appends a single pair directly (used by tests and the SRS path).
  /// `policy_epoch` attributes the pair to a policy generation.
  void add_pair(SubStreamId id, WeightedSample pair,
                std::uint64_t policy_epoch = 0);

  /// Empties the window but keeps its storage for the next one: every
  /// pair's item buffer moves to a spare list that add() draws from, and
  /// sub-streams seen this window keep their (now empty) pair lists.
  /// What is kept is bounded by what this window held — spares left over
  /// from the previous window and sub-streams idle for a whole window are
  /// freed. Never allocates: add() keeps the spare list's capacity at or
  /// above the number of pairs held.
  void clear() noexcept;

  [[nodiscard]] bool empty() const noexcept { return pair_count_ == 0; }

  /// All sub-streams with at least one pair.
  [[nodiscard]] std::vector<SubStreamId> sub_streams() const;

  /// Pairs for one sub-stream (empty vector if unseen).
  [[nodiscard]] const std::vector<WeightedSample>& pairs(SubStreamId id) const;

  /// ζ_i: total number of sampled items of sub-stream i at the root.
  [[nodiscard]] std::uint64_t sampled_count(SubStreamId id) const;

  /// ĉ_{i,b}: the estimate of the sub-stream's original item count,
  /// Σ |I| · W^out — exact by the Eq. 8 invariant.
  [[nodiscard]] double estimated_original_count(SubStreamId id) const;

  /// Total sampled items across all sub-streams.
  [[nodiscard]] std::uint64_t total_sampled() const;

  /// Oldest/newest policy epoch among the bundles accumulated in this
  /// window (both 0 for an empty window). Equal values mean every sample
  /// was produced under one policy generation; a span means the window
  /// straddled a live policy swap.
  [[nodiscard]] std::uint64_t min_policy_epoch() const noexcept {
    return epoch_seen_ ? epoch_min_ : 0;
  }
  [[nodiscard]] std::uint64_t max_policy_epoch() const noexcept {
    return epoch_seen_ ? epoch_max_ : 0;
  }

  /// Raw epoch-span state, for checkpointing. add_pair() cannot rebuild it
  /// faithfully (it folds its own epoch argument into the span), so a
  /// restore replays the pairs first and then overwrites the span with the
  /// exact values the checkpoint recorded.
  struct EpochSpan {
    std::uint64_t min{0};
    std::uint64_t max{0};
    bool seen{false};
  };
  [[nodiscard]] EpochSpan epoch_span() const noexcept {
    return EpochSpan{epoch_min_, epoch_max_, epoch_seen_};
  }
  void restore_epoch_span(const EpochSpan& span) noexcept {
    epoch_min_ = span.min;
    epoch_max_ = span.max;
    epoch_seen_ = span.seen;
  }

 private:
  void note_epoch(std::uint64_t epoch) noexcept;
  /// Appends an empty pair for `id`, its item buffer taken from spares_.
  WeightedSample& new_pair(SubStreamId id);

  /// Per sub-stream pair lists. A list may be empty (its sub-stream had
  /// pairs last window): readers skip empty lists.
  std::map<SubStreamId, std::vector<WeightedSample>> pairs_;
  std::size_t pair_count_{0};
  /// Item buffers of cleared pairs, reused by new pairs.
  std::vector<std::vector<Item>> spares_;
  std::uint64_t epoch_min_{0};
  std::uint64_t epoch_max_{0};
  bool epoch_seen_{false};
  static const std::vector<WeightedSample> kEmpty;
};

}  // namespace approxiot::core
