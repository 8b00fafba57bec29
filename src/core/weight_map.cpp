#include "core/weight_map.hpp"

#include <algorithm>

#include "core/stratified.hpp"

namespace approxiot::core {

void WeightMap::get_for_strata(const std::vector<Stratum>& dir,
                               double* out) const noexcept {
  const std::size_t m = order_.size();
  if (dir.size() * kPointLookupRatio < m) {
    // A few strata against a large memory (an interior node's per-child
    // bundle vs. every sub-stream it has seen): the merge would walk the
    // whole index, so probe the hash table per stratum instead.
    for (std::size_t k = 0; k < dir.size(); ++k) out[k] = get(dir[k].id);
    return;
  }
  // Two-pointer merge: both sequences ascend, so each sorted-index entry
  // is visited at most once across the whole directory.
  std::size_t oi = 0;
  for (std::size_t k = 0; k < dir.size(); ++k) {
    const SubStreamId id = dir[k].id;
    while (oi < m && slots_[order_[oi]].id < id) ++oi;
    out[k] = (oi < m && slots_[order_[oi]].id == id)
                 ? slots_[order_[oi]].weight
                 : 1.0;
  }
}

std::size_t WeightMap::find_slot(SubStreamId id) const noexcept {
  if (slots_.empty()) return npos;
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash(id)) & mask;
  while (slots_[slot].used) {
    if (slots_[slot].id == id) return slot;
    slot = (slot + 1) & mask;
  }
  return npos;
}

void WeightMap::set(SubStreamId id, double weight) {
  if (slots_.empty()) {
    slots_.assign(kInitialSlots, Slot{});
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash(id)) & mask;
  while (slots_[slot].used) {
    if (slots_[slot].id == id) {
      slots_[slot].weight = weight;
      return;
    }
    slot = (slot + 1) & mask;
  }

  // New entry: claim the slot, register it in the sorted iteration index,
  // and grow the table when past ~70% load so probes stay short. The
  // index insert is an O(n) memmove of 4-byte indices in the worst case,
  // but the paths that bulk-populate maps — update_from of the same
  // sub-stream set (pure overwrites, no insert) and decode_bundle (wire
  // order is sorted, so every insert lands at the end) — stay O(1) per
  // entry; only interleaved first-sightings pay the move, and weight
  // maps are small (one entry per sub-stream).
  slots_[slot] = Slot{id, weight, true};
  auto it = std::lower_bound(
      order_.begin(), order_.end(), id,
      [this](std::uint32_t s, SubStreamId v) { return slots_[s].id < v; });
  order_.insert(it, static_cast<std::uint32_t>(slot));
  if (order_.size() * 10 >= slots_.size() * 7) grow();
}

void WeightMap::grow() {
  const std::size_t new_size = slots_.size() * 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_size, Slot{});
  const std::size_t mask = new_size - 1;
  // Re-place every occupied slot; order_ holds the same ids afterwards,
  // just pointing at their new homes, so it is rebuilt in the same order.
  std::vector<std::uint32_t> order = std::move(order_);
  order_.clear();
  order_.reserve(order.size());
  for (const std::uint32_t old_slot : order) {
    const Slot& entry = old[old_slot];
    std::size_t slot = static_cast<std::size_t>(hash(entry.id)) & mask;
    while (slots_[slot].used) slot = (slot + 1) & mask;
    slots_[slot] = entry;
    order_.push_back(static_cast<std::uint32_t>(slot));
  }
}

std::ostream& operator<<(std::ostream& os, const WeightMap& m) {
  os << "{";
  bool first = true;
  for (const auto& [id, w] : m) {
    if (!first) os << ", ";
    os << "S" << id << ": " << w;
    first = false;
  }
  return os << "}";
}

}  // namespace approxiot::core
