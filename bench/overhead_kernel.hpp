// The measured kernel shared by bench_overhead's modes: one node-lane
// processing intervals through the flat data plane (stratify -> WHSamp ->
// forward), instrumented with the same hook density as
// ConcurrentEdgeTree's node loop — a stage-execute span plus exec_us
// histogram, items/intervals counters, and an occupancy gauge per
// interval.
//
// This header is included by exactly two translation units:
//
//   bench_overhead.cpp     hooks compiled in (stats-on / stats-off rows)
//   overhead_nostats.cpp   compiled with -DAPPROXIOT_NO_STATS, so every
//                          AIOT_OBS site expands to nothing
//
// Because the expansions differ per TU, everything that touches a hook
// lives in an anonymous namespace — each TU gets its own private copy and
// no ODR question arises. Only OverheadResult (hook-free, identical in
// both TUs) and the forwarding declaration below have external linkage.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/stratified.hpp"
#include "core/whsamp.hpp"
#include "obs/hooks.hpp"

namespace approxiot::bench {

struct OverheadResult {
  std::uint64_t checksum{0};  // order-sensitive digest of the sampled items
  double seconds{0.0};        // wall time for the whole interval loop
};

/// The APPROXIOT_NO_STATS row, defined in overhead_nostats.cpp.
OverheadResult run_overhead_kernel_nostats(const std::vector<Item>& items,
                                           std::size_t budget,
                                           std::size_t intervals);

namespace {

inline std::uint64_t fold_item(std::uint64_t checksum, const Item& item) {
  std::uint64_t value_bits = 0;
  static_assert(sizeof(value_bits) == sizeof(item.value));
  std::memcpy(&value_bits, &item.value, sizeof(value_bits));
  checksum = checksum * 1099511628211ull + item.source.value();
  checksum = checksum * 1099511628211ull + value_bits;
  checksum = checksum * 1099511628211ull +
             static_cast<std::uint64_t>(item.created_at_us);
  return checksum;
}

/// Runs `intervals` interval steps over the same input batch, exactly the
/// way a tree node's lane does, and digests every sampled item into the
/// checksum. Sampling consumes RNG identically in every mode, so the
/// checksum must be bit-identical whether `stats`/`tracer` are bound,
/// null, or the hooks are compiled out entirely.
[[maybe_unused]] OverheadResult run_overhead_kernel(
    const std::vector<Item>& items, std::size_t budget,
    std::size_t intervals, obs::StatsRegistry* stats, obs::Tracer* tracer) {
  [[maybe_unused]] obs::Counter* items_in = nullptr;
  [[maybe_unused]] obs::Counter* intervals_done = nullptr;
  [[maybe_unused]] obs::Histogram* exec_us = nullptr;
  [[maybe_unused]] obs::Gauge* occupancy = nullptr;
  [[maybe_unused]] obs::TrackId track = obs::ScopedSpan::kNoTrack;
  AIOT_OBS(
      if (stats != nullptr) {
        obs::ScopedStats scope = stats->scope("bench/node0");
        items_in = scope.counter("items_in");
        intervals_done = scope.counter("intervals");
        exec_us = scope.histogram("exec_us");
        occupancy = scope.gauge("occupancy");
      } if (tracer != nullptr) { track = tracer->register_track("bench/node0"); });
  (void)stats;
  (void)tracer;

  core::WHSampler sampler{Rng(20180701)};
  core::StratifiedBatch scratch;
  OverheadResult result;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < intervals; ++k) {
    AIOT_OBS_SPAN(span, tracer, track, "stage-execute");
    [[maybe_unused]] std::chrono::steady_clock::time_point t0{};
    AIOT_OBS(if (exec_us != nullptr) t0 = std::chrono::steady_clock::now(););

    scratch.assign(items);
    core::SampledBundle bundle;
    sampler.sample_strata(scratch, budget, core::WeightMap{}, bundle);
    core::ItemBundle forwarded = std::move(bundle).to_bundle();
    for (const Item& item : forwarded.items) {
      result.checksum = fold_item(result.checksum, item);
    }

    AIOT_OBS(
        if (exec_us != nullptr) {
          const std::chrono::duration<double, std::micro> d =
              std::chrono::steady_clock::now() - t0;
          exec_us->record(d.count());
          items_in->increment(items.size());
          intervals_done->increment();
          occupancy->set(static_cast<double>(forwarded.items.size()) /
                         static_cast<double>(items.size()));
        });
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  result.seconds = elapsed.count();
  return result;
}

}  // namespace
}  // namespace approxiot::bench
