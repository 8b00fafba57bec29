// Drives one ConcurrentEdgeTree through its public calls for a timed
// phase, then checks the phase's windows against Eq. 8 and against the
// sequential core::EdgeTree oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "runtime/concurrent_tree.hpp"
#include "workloads.hpp"

namespace edgebench {

/// Microseconds on the steady clock; every timestamp below uses it.
[[nodiscard]] std::int64_t now_us();

struct PhaseOptions {
  double seconds{10.0};
  /// The phase runs on past `seconds` until this many windows closed.
  /// It is also the prefix the accuracy metrics are taken over, so they
  /// do not depend on how fast the machine is.
  std::size_t min_windows{1};
  bool traced{false};
};

struct Window {
  approxiot::core::ApproxResult result;
  double exact_sum{0.0};
  std::uint64_t exact_count{0};
  /// When the window's last interval was due (open loop) or its push
  /// started (closed loop), and when close_window() returned.
  std::int64_t last_due_us{0};
  std::int64_t closed_us{0};
};

struct Phase {
  std::vector<Window> windows;
  /// Per pushed interval: due time (open loop) or push start (closed
  /// loop), and when the root tap saw it folded (-1: never).
  std::vector<std::int64_t> due_us;
  std::vector<std::int64_t> fold_us;
  std::int64_t first_push_us{0};
  /// Durations of the benchmark's calls into the tree, in microseconds.
  std::vector<double> push_us;
  std::vector<double> query_us;
  std::vector<double> drain_us;
  std::vector<double> close_us;
  /// Open loop: how late each push started against its due time.
  std::vector<double> gen_lag_us;
  std::uint64_t items_ingested{0};
  /// Sampled items the root folded into Θ, counted in the root tap.
  std::uint64_t root_items{0};
  /// Tree counters once the first `min_windows` windows had closed.
  approxiot::runtime::ConcurrentEdgeTree::TreeMetrics at_prefix;
  /// Tree counters at the end of the phase.
  approxiot::runtime::ConcurrentEdgeTree::TreeMetrics at_end;
  std::size_t node_count{0};
  /// The CPU the generator ran on, apart from the workers (-1: unpinned).
  int generator_cpu{-1};
  double wall_s{0.0};
  /// Process user+sys CPU over the timed loop.
  double cpu_s{0.0};
  /// Traced phases only.
  approxiot::obs::StatsSnapshot stats;
  std::string trace_json;
  std::size_t trace_events{0};
};

/// Items ingested ÷ (last root fold − first push).
[[nodiscard]] double items_per_s(const Phase& phase);
/// Per interval that reached the root: fold time − due time.
[[nodiscard]] std::vector<double> interval_latencies_us(const Phase& phase);
/// Per window: close_window() return − due time of its last interval.
[[nodiscard]] std::vector<double> answer_latencies_us(const Phase& phase);

/// Runs one phase. Mutates `inputs` only through stamp_interval.
[[nodiscard]] Phase run_phase(const Workload& workload, Inputs& inputs,
                              std::uint64_t seed, const PhaseOptions& options);

/// Constructor wall time of the tree (with its control plane), `reps`
/// times, in seconds. Each tree is destroyed untimed before the next.
[[nodiscard]] std::vector<double> measure_setup(const Workload& workload,
                                                std::uint64_t seed,
                                                std::size_t reps);

struct CheckResult {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> problems;
  /// Sequential EdgeTree throughput on the oracle prefix (items/s).
  double oracle_items_per_s{0.0};
};

/// Untimed correctness checks of one phase: every interval reached the
/// root, every window conserves the ingested count (Eq. 8), and the
/// workload's oracle prefix is bit-identical to core::EdgeTree fed the
/// same inputs with the same adaptive loop.
[[nodiscard]] CheckResult check_phase(const Workload& workload,
                                      Inputs& inputs, std::uint64_t seed,
                                      const Phase& phase);

}  // namespace edgebench
