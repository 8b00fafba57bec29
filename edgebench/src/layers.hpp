// Per-layer metrics of a traced phase: the benchmark's own call timings
// plus the runtime's per-node `tree/…` and `tree/sched/…` stats rolled up
// into per-tree-layer sums (L0 = leaves … L3, root).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "runner.hpp"

namespace edgebench {

struct Metric {
  double value{0.0};
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Tree-layer names the per-layer metrics are reported for. A workload
/// whose tree is shallower reports 0 for the layers it does not have.
[[nodiscard]] const std::vector<std::string>& tree_layers();

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The two phases of a --trace 1 run: the same workload untraced, then
/// traced. Per-layer numbers come from the traced phase; the latency
/// tails, which are too unsteady to bound, from the untraced one.
struct TracedRun {
  const Phase* untraced{nullptr};
  const Phase* traced{nullptr};
  /// From the traced phase's oracle check.
  double oracle_items_per_s{0.0};
  /// The configured fraction: final_fraction when no epoch was published.
  double fraction{0.0};
};

[[nodiscard]] Metrics layer_metrics(const TracedRun& run);

}  // namespace edgebench
