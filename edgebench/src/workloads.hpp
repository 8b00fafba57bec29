// The benchmark's three workloads and their seeded inputs.
//
// Every workload runs the WHS engine (kApproxIoT) with kBlock
// backpressure on a kEvents tree of two scheduler workers, and closes a
// window every ten intervals. The config sets only the fields a workload
// needs, so a later change that removes a knob touches one line here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "runtime/concurrent_tree.hpp"

namespace edgebench {

using approxiot::Item;

struct Workload {
  std::string name;
  std::vector<std::size_t> layer_widths;
  double fraction{0.1};
  /// Open loop: one interval is due every `period_us`, whether or not the
  /// tree kept up. Closed loop (0): the next interval is pushed as soon as
  /// fewer than kClosedLoopInFlight intervals are on their way to the root.
  std::int64_t period_us{0};
  /// run_query() after every push (reads racing the root's Θ writes).
  bool query_after_push{false};
  /// Window-synchronous adaptive feedback (one policy epoch per close).
  bool adaptive{false};
  /// Leading windows compared bit for bit against core::EdgeTree.
  std::size_t oracle_windows{0};
  /// Leading windows the accuracy metrics are averaged over; an untraced
  /// run lasts until they closed.
  std::size_t accuracy_windows{300};
  /// Distinct intervals generated up front; the run cycles through them.
  std::size_t pool_intervals{7};
};

inline constexpr std::size_t kIntervalsPerWindow = 10;
inline constexpr std::size_t kEventWorkers = 2;
/// One interval per event worker. Pushing back to back instead lets up to
/// a window of intervals queue in the leaf channels, and latency then
/// depends on how far the generator ran ahead (see README.md).
inline constexpr std::size_t kClosedLoopInFlight = 2;

[[nodiscard]] const std::vector<Workload>& workloads();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// The inputs of one run: a pool of intervals (one item vector per leaf)
/// and, per pool interval, the exact SUM and COUNT from
/// workload::GroundTruth.
struct Inputs {
  std::vector<std::vector<std::vector<Item>>> pool;
  std::vector<double> exact_sum;
  std::vector<std::uint64_t> exact_count;
};

/// Same seed, same inputs. `toy` shrinks every interval for the
/// self-check.
[[nodiscard]] Inputs make_inputs(const Workload& workload, std::uint64_t seed,
                                 bool toy);

/// Overwrites every item's created_at_us with `stamp`: the root tap reads
/// it back to learn which interval a sample belongs to.
void stamp_interval(std::vector<std::vector<Item>>& interval,
                    std::int64_t stamp);

[[nodiscard]] approxiot::runtime::ConcurrentTreeConfig tree_config(
    const Workload& workload, std::uint64_t seed);

}  // namespace edgebench
