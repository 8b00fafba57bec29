// WeightMap: the per-sub-stream weight metadata that travels with sampled
// items between nodes (§III-A).
//
// A weight W_i answers "how many original items does one sampled item of
// sub-stream S_i stand for". Sources implicitly start at weight 1; each
// node that overflows its reservoir multiplies the weight by c_i / N_i
// (Eq. 2). The map also implements the paper's interval-splitting rule
// (Fig. 3): when items arrive in an interval with no accompanying weight,
// the *last known* weight for that sub-stream applies, so the map
// remembers weights across intervals.
//
// Storage is a flat open-addressing table (power-of-two slots, linear
// probing), not a node-based std::map: get()/contains() are the
// per-stratum-per-interval hot calls of the samplers and resolve with one
// hash and a short probe instead of a pointer chase. Iteration order must
// stay deterministic and ascending by id — the wire format, operator<<,
// and every equivalence test depend on it — so the map also keeps a
// sorted index of occupied slots; iteration walks that index, which makes
// begin()/end() and operator== behave exactly like the old std::map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace approxiot::core {

struct Stratum;

class WeightMap {
 public:
  WeightMap() = default;

  /// Weight for `id`; sub-streams never seen default to 1 (the weight of
  /// raw source data, §III-C case i).
  [[nodiscard]] double get(SubStreamId id) const noexcept {
    const std::size_t slot = find_slot(id);
    return slot == npos ? 1.0 : slots_[slot].weight;
  }

  [[nodiscard]] bool contains(SubStreamId id) const noexcept {
    return find_slot(id) != npos;
  }

  /// Weights for a whole stratum directory at once. `dir` is ascending
  /// by id (the StratifiedBatch invariant), so instead of one hash +
  /// probe per stratum this merges dir against the sorted slot index in
  /// a single linear pass — the samplers' per-interval block lookup.
  /// When dir is much smaller than the map it probes per stratum instead,
  /// so the cost is O(min(|dir| + size(), |dir| * probe)). Writes
  /// dir.size() weights to `out`; absent ids get 1 (same default as
  /// get()).
  void get_for_strata(const std::vector<Stratum>& dir,
                      double* out) const noexcept;

  void set(SubStreamId id, double weight);

  /// Overwrites entries present in `other`, keeps the rest — the
  /// "remember the up-to-date weight" rule of Fig. 3.
  void update_from(const WeightMap& other) {
    for (const auto& [id, w] : other) set(id, w);
  }

  /// Empties the map but keeps its table: a cleared map refilled with
  /// as many entries as before allocates nothing. Only occupied slots are
  /// reset (through the sorted index), so the cost is O(size()).
  void clear() noexcept {
    for (const std::uint32_t slot : order_) slots_[slot] = Slot{};
    order_.clear();
  }
  void swap(WeightMap& other) noexcept {
    slots_.swap(other.slots_);
    order_.swap(other.order_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] bool empty() const noexcept { return order_.empty(); }

  /// Iterates (id, weight) pairs in ascending id order — the exact
  /// sequence the old std::map produced.
  class const_iterator {
   public:
    using value_type = std::pair<SubStreamId, double>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;
    using pointer = void;

    const_iterator() = default;
    const_iterator(const WeightMap* map, std::size_t index) noexcept
        : map_(map), index_(index) {}

    [[nodiscard]] value_type operator*() const noexcept {
      const Slot& slot = map_->slots_[map_->order_[index_]];
      return {slot.id, slot.weight};
    }

    struct ArrowProxy {
      value_type pair;
      const value_type* operator->() const noexcept { return &pair; }
    };
    [[nodiscard]] ArrowProxy operator->() const noexcept {
      return ArrowProxy{**this};
    }

    const_iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    friend bool operator==(const_iterator a, const_iterator b) noexcept {
      return a.map_ == b.map_ && a.index_ == b.index_;
    }
    friend bool operator!=(const_iterator a, const_iterator b) noexcept {
      return !(a == b);
    }

   private:
    const WeightMap* map_{nullptr};
    std::size_t index_{0};
  };

  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(this, order_.size());
  }

  /// Same semantics as std::map equality: identical (id, weight) entry
  /// sequences (both iterate in ascending id order).
  friend bool operator==(const WeightMap& a, const WeightMap& b) noexcept {
    if (a.order_.size() != b.order_.size()) return false;
    for (std::size_t i = 0; i < a.order_.size(); ++i) {
      const Slot& sa = a.slots_[a.order_[i]];
      const Slot& sb = b.slots_[b.order_[i]];
      if (sa.id != sb.id || sa.weight != sb.weight) return false;
    }
    return true;
  }

  friend std::ostream& operator<<(std::ostream& os, const WeightMap& m);

 private:
  struct Slot {
    SubStreamId id{};
    double weight{0.0};
    bool used{false};
  };

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// First table size. Most maps travel with one bundle and hold one or a
  /// few sub-streams, so the table starts small and doubles on demand.
  static constexpr std::size_t kInitialSlots = 4;
  /// get_for_strata probes per stratum once the map holds more than this
  /// many entries per directory entry.
  static constexpr std::size_t kPointLookupRatio = 8;

  /// Full-avalanche mix so clustered ids spread over the 2^k table.
  static std::uint64_t hash(SubStreamId id) noexcept {
    return mix64(id.value());
  }

  [[nodiscard]] std::size_t find_slot(SubStreamId id) const noexcept;
  void grow();

  std::vector<Slot> slots_;          // open-addressing table, 2^k slots
  std::vector<std::uint32_t> order_; // occupied slots, sorted by id
};

}  // namespace approxiot::core
