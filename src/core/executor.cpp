#include "core/executor.hpp"

#include <algorithm>
#include <chrono>
#include <latch>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/checkpoint.hpp"
#include "obs/hooks.hpp"
#include "runtime/thread_pool.hpp"
#include "sampling/allocation.hpp"

namespace approxiot::core {

namespace {

/// Lane payload tags: a checkpoint records which lane implementation
/// wrote it, so restores across lane types fail loudly instead of
/// desynchronising RNG streams.
constexpr std::uint64_t kSequentialLaneTag = 1;
constexpr std::uint64_t kPooledLaneTag = 2;

/// Per-lane observability sinks, resolved once at lane creation. All
/// pointers may be null. Timing reads clocks only — never the lane RNG —
/// so instrumented and bare lanes emit bit-identical samples.
struct LaneObs {
  obs::Histogram* dispatch_us{nullptr};  ///< offer phase (shard fill)
  obs::Histogram* merge_us{nullptr};     ///< merge + reweight phase
  obs::Counter* items{nullptr};
  obs::Counter* intervals{nullptr};
  obs::Tracer* tracer{nullptr};
  obs::TrackId track{0};
};

}  // namespace

// ---------------------------------------------------------------------------
// SubStreamWorker

SubStreamWorker::SubStreamWorker(std::size_t capacity, Rng rng,
                                 sampling::ReservoirAlgorithm algorithm)
    : reservoir_(capacity, rng, algorithm) {}

void SubStreamWorker::offer(const Item& item) { reservoir_.offer(item); }

void SubStreamWorker::rearm(std::size_t capacity, const Rng& rng) {
  reservoir_.rearm(capacity, rng);
}

void SubStreamWorker::collect_into(std::vector<Item>& out) {
  const auto& kept = reservoir_.contents();
  out.insert(out.end(), kept.begin(), kept.end());
  reservoir_.reset();
}

// ---------------------------------------------------------------------------
// WorkerGroup

WorkerGroup::WorkerGroup(std::size_t workers, std::size_t total_capacity,
                         Rng rng, sampling::ReservoirAlgorithm algorithm)
    : algorithm_(algorithm) {
  rearm(workers, total_capacity, rng);
}

void WorkerGroup::rearm(std::size_t workers, std::size_t total_capacity,
                        const Rng& rng) {
  if (workers == 0) workers = 1;
  // Clamp: never more workers than reservoir slots, so every active
  // worker holds >= 1 slot and a sub-stream with any capacity cannot
  // merge to c̃ = 0 while c > 0 under round-robin sharding.
  active_ = std::max<std::size_t>(
      1, std::min(workers, std::max<std::size_t>(total_capacity, 1)));
  overflow_seen_.assign(workers, 0);
  next_worker_ = 0;

  const std::size_t base = total_capacity / active_;
  const std::size_t remainder = total_capacity % active_;

  // Worker 0 continues the exact stream WHSampler's single reservoir
  // would use; further workers reseed from values drawn off a copy of it
  // (cheap SplitMix expansion, independent streams).
  Rng stream = rng.split();
  Rng seeder = stream;
  for (std::size_t i = 0; i < active_; ++i) {
    const std::size_t cap = base + (i < remainder ? 1 : 0);
    const Rng worker_rng = i == 0 ? stream : Rng(seeder.next());
    if (i < workers_.size()) {
      workers_[i].rearm(cap, worker_rng);
    } else {
      workers_.emplace_back(cap, worker_rng, algorithm_);
    }
  }
}

void WorkerGroup::shard(const std::vector<Item>& items) {
  for (const Item& item : items) {
    workers_[next_worker_].offer(item);
    next_worker_ = (next_worker_ + 1) % active_;
  }
}

void WorkerGroup::offer_to(std::size_t worker, const Item& item) {
  workers_.at(worker).offer(item);
}

void WorkerGroup::offer_routed(std::size_t shard, const Item& item) {
  if (shard < active_) {
    workers_[shard].offer(item);
  } else {
    ++overflow_seen_[shard];
  }
}

WorkerGroup::MergeResult WorkerGroup::merge() {
  MergeResult result;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_; ++i) {
    result.total_count += workers_[i].local_count();
    kept += workers_[i].sample_size();
  }
  for (std::uint64_t& seen : overflow_seen_) {
    result.total_count += seen;
    seen = 0;
  }
  // Worker 0's reservoir is moved out wholesale (at one worker this is
  // exactly WHSampler's drain — zero copies); only workers beyond it are
  // copied in, so their buffers persist. Worker 0's buffer regrows next
  // interval with a single up-front reserve.
  result.sample = workers_[0].drain();
  if (active_ > 1) {
    result.sample.reserve(kept);
    for (std::size_t i = 1; i < active_; ++i) {
      workers_[i].collect_into(result.sample);
    }
  }
  if (result.total_count > kept && kept > 0) {
    result.weight_multiplier = static_cast<double>(result.total_count) /
                               static_cast<double>(kept);
  }
  next_worker_ = 0;
  return result;
}

// ---------------------------------------------------------------------------
// Sequential executor

namespace {

class SequentialLane final : public SamplingLane {
 public:
  SequentialLane(Rng rng, WHSampConfig config)
      : sampler_(rng, std::move(config)) {}

  void sample_strata(const StratifiedBatch& strata, std::size_t sample_size,
                     const WeightMap& w_in, SampledBundle& out) override {
    sampler_.sample_strata(strata, sample_size, w_in, out);
  }

  std::size_t workers() const noexcept override { return 1; }

  void save_state(CheckpointWriter& writer) const override {
    writer.put_u64(kSequentialLaneTag);
    writer.put_rng(sampler_.rng_state());
  }

  void restore_state(CheckpointReader& reader) override {
    if (reader.get_u64() != kSequentialLaneTag) {
      throw CheckpointError(
          "checkpoint: lane type mismatch (snapshot is not from a "
          "sequential lane)");
    }
    sampler_.set_rng_state(reader.get_rng());
  }

 private:
  WHSampler sampler_;
};

}  // namespace

std::unique_ptr<SamplingLane> SequentialSamplingExecutor::create_lane(
    Rng rng, WHSampConfig config) {
  return std::make_unique<SequentialLane>(rng, std::move(config));
}

SamplingExecutor& sequential_executor() noexcept {
  static SequentialSamplingExecutor instance;
  return instance;
}

// ---------------------------------------------------------------------------
// Pooled executor

namespace {

/// The pool-tuned variant of the WorkerGroup protocol: all of a
/// sub-stream's shard reservoirs live as disjoint slices of ONE
/// contiguous buffer, each running Algorithm R on its slice with its own
/// RNG and counters. Shard t touches only slice t and its own (padded)
/// state while items flow, so shards are trivially data-race free; the
/// merge compacts in place and moves the buffer out — zero item copies
/// when the sub-stream overflowed (every slice full), a short downward
/// shift otherwise.
class ShardGroup {
 public:
  void rearm(std::size_t workers, std::size_t total_capacity, const Rng& rng) {
    if (workers == 0) workers = 1;
    // Same clamp as WorkerGroup: every active shard holds >= 1 slot, so
    // c̃ cannot merge to 0 while c > 0 unless the capacity itself is 0.
    const std::size_t active = std::max<std::size_t>(
        1, std::min(workers, std::max<std::size_t>(total_capacity, 1)));
    shards_.resize(workers);
    total_capacity_ = total_capacity;

    const std::size_t base = total_capacity / active;
    const std::size_t remainder = total_capacity % active;
    // Shard 0 continues the exact stream WHSampler's single reservoir
    // would use; further shards reseed from values drawn off a copy.
    Rng stream = rng.split();
    Rng seeder = stream;
    std::size_t offset = 0;
    for (std::size_t t = 0; t < workers; ++t) {
      Shard& shard = shards_[t];
      shard.offset = offset;
      shard.capacity = t < active ? base + (t < remainder ? 1 : 0) : 0;
      shard.kept = 0;
      shard.seen = 0;
      shard.rng = t == 0 ? stream : Rng(seeder.next());
      offset += shard.capacity;
    }
    // The buffer persists across intervals and only ever grows: steady
    // state pays no allocation and no re-initialisation here (slots are
    // written by the fill phase and never read beyond each shard's kept
    // count).
    if (buffer_.size() < total_capacity) buffer_.resize(total_capacity);
  }

  /// Algorithm R on shard `t`'s slice. Shards with no capacity (clamped
  /// away, or a zero-capacity sub-stream) only count the arrival.
  void offer(std::size_t t, const Item& item) {
    Shard& shard = shards_[t];
    ++shard.seen;
    if (shard.kept < shard.capacity) {
      buffer_[shard.offset + shard.kept++] = item;
      return;
    }
    if (shard.capacity == 0) return;
    const std::uint64_t j = shard.rng.next_below(shard.seen);
    if (j < shard.capacity) {
      buffer_[shard.offset + static_cast<std::size_t>(j)] = item;
    }
  }

  struct MergeStats {
    std::uint64_t total_count{0};
    double weight_multiplier{1.0};
  };

  /// Compacts the kept slices in place, appends them as stratum `id` of
  /// `out` (one bulk copy of POD items straight into the bundle arena —
  /// no intermediate per-stratum vector), and resets for the next
  /// interval. The slice buffer itself persists.
  [[nodiscard]] MergeStats merge_into(SubStreamId id, StratifiedBatch& out) {
    MergeStats result;
    std::size_t kept = 0;
    for (const Shard& shard : shards_) {
      result.total_count += shard.seen;
      kept += shard.kept;
    }
    if (kept < total_capacity_) {
      // Underfull slices leave holes; shift each slice's kept prefix
      // down so the kept items are dense. Destinations never overrun
      // sources (offsets only shrink), so in-place moves are safe.
      std::size_t write = 0;
      for (const Shard& shard : shards_) {
        if (shard.kept == 0) continue;
        if (write != shard.offset) {
          std::move(buffer_.begin() + static_cast<std::ptrdiff_t>(shard.offset),
                    buffer_.begin() +
                        static_cast<std::ptrdiff_t>(shard.offset + shard.kept),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(write));
        }
        write += shard.kept;
      }
    }
    out.append_stratum(id, buffer_.data(), kept);
    if (result.total_count > kept && kept > 0) {
      result.weight_multiplier = static_cast<double>(result.total_count) /
                                 static_cast<double>(kept);
    }
    return result;
  }

 private:
  // Padded so concurrently updated shard states never share a line.
  struct alignas(64) Shard {
    std::size_t offset{0};
    std::size_t capacity{0};
    std::size_t kept{0};
    std::uint64_t seen{0};
    Rng rng;
  };
  std::vector<Shard> shards_;
  std::vector<Item> buffer_;
  std::size_t total_capacity_{0};
};

/// One node's pooled session: Algorithm 1 with the per-sub-stream
/// reservoir sharded over `workers_` shards. Shard assignment is the
/// item's within-stratum position modulo the worker count — a pure
/// function of the input — so inline and pool-dispatched execution are
/// interchangeable.
class PooledLane final : public SamplingLane {
 public:
  PooledLane(Rng rng, WHSampConfig config, std::size_t workers,
             runtime::ThreadPool* pool, std::size_t min_items_to_dispatch,
             LaneObs lane_obs = {})
      : rng_(rng),
        config_(std::move(config)),
        policy_(sampling::make_allocation_policy(config_.allocation_policy)),
        workers_(workers == 0 ? 1 : workers),
        pool_(pool),
        min_items_to_dispatch_(min_items_to_dispatch),
        obs_(lane_obs) {
    if (workers_ > 1 &&
        config_.reservoir_algorithm !=
            sampling::ReservoirAlgorithm::kAlgorithmR) {
      // The sharded slices run Algorithm R; refuse rather than silently
      // substitute it for a configured alternative.
      throw std::invalid_argument(
          "sharded sampling (>1 worker) supports only the Algorithm R "
          "reservoir");
    }
  }

  void sample_strata(const StratifiedBatch& batch, std::size_t sample_size,
                     const WeightMap& w_in, SampledBundle& out) override {
    out.clear();
    if (batch.item_count() == 0) return;

    // Line 5 of Algorithm 1 is already done: the batch arena holds each
    // stratum contiguous and in arrival order, the directory sorted by
    // ascending id — the exact order WHSampler's stratify() map
    // produces. Every per-stratum loop below walks that directory, so
    // RNG consumption (split per stratum, then one jump) matches the
    // sequential path draw for draw.
    const std::vector<Stratum>& dir = batch.strata();
    const Item* arena = batch.items().data();

    // Line 7: per-sub-stream reservoir sizes N_i. The infos carry the
    // resolved W^in_i so the merge loop does not re-query the weight map
    // per stratum.
    weights_scratch_.resize(dir.size());
    w_in.get_for_strata(dir, weights_scratch_.data());
    infos_.clear();
    infos_.reserve(dir.size());
    for (std::size_t k = 0; k < dir.size(); ++k) {
      const Stratum& s = dir[k];
      infos_.push_back(
          sampling::SubStreamInfo{s.id, s.len, 0.0, weights_scratch_[k]});
    }
    policy_->allocate(sample_size, infos_, sizes_);

    // Rearm the long-lived shard group of every sub-stream present, in
    // sorted id order.
    ++calls_;
    route_groups_.assign(dir.size(), nullptr);
    for (std::size_t k = 0; k < dir.size(); ++k) {
      GroupEntry& entry = groups_[dir[k].id];
      entry.last_used = calls_;
      entry.group.rearm(workers_, sizes_[k], rng_);
      rng_.jump();
      route_groups_[k] = &entry.group;
    }

    AIOT_OBS(
        if (obs_.intervals != nullptr) obs_.intervals->increment();
        if (obs_.items != nullptr) obs_.items->increment(batch.item_count()););
    [[maybe_unused]] std::chrono::steady_clock::time_point phase_begin{};
    [[maybe_unused]] std::int64_t trace_begin = 0;
    AIOT_OBS(
        if (obs_.dispatch_us != nullptr || obs_.tracer != nullptr) {
          phase_begin = std::chrono::steady_clock::now();
          if (obs_.tracer != nullptr) trace_begin = obs_.tracer->now_us();
        });

    // Lines 8-19: offer every item to its (sub-stream, shard) reservoir.
    // The shard is the item's WITHIN-stratum position modulo the worker
    // count — a pure function of the input, so inline and pooled
    // execution agree (and a periodically interleaved input cannot
    // concentrate one sub-stream onto few shards) — and while items
    // flow, shard t touches only slot t of each group: the §III-E
    // no-coordination hot path. Strata are contiguous spans now, so both
    // paths stream straight through the arena.
    const bool dispatch = pool_ != nullptr && workers_ > 1 &&
                          batch.item_count() >= min_items_to_dispatch_;
    if (!dispatch) {
      for (std::size_t k = 0; k < dir.size(); ++k) {
        ShardGroup* group = route_groups_[k];
        const Item* span = arena + dir[k].offset;
        std::size_t shard = 0;
        for (std::size_t i = 0; i < dir[k].len; ++i) {
          group->offer(shard, span[i]);
          if (++shard == workers_) shard = 0;
        }
      }
    } else {
      // Task t walks every stratum's span with stride w starting at t —
      // the same assignment the inline round-robin makes — so each
      // (stratum, shard) reservoir is touched by exactly one task, in
      // arrival order.
      std::latch done(static_cast<std::ptrdiff_t>(workers_));
      for (std::size_t t = 0; t < workers_; ++t) {
        auto run_shard = [this, &dir, arena, &done, t, stride = workers_]() {
          struct Signal {
            std::latch* latch;
            ~Signal() { latch->count_down(); }
          } signal{&done};
          for (std::size_t k = 0; k < dir.size(); ++k) {
            ShardGroup* group = route_groups_[k];
            const Item* span = arena + dir[k].offset;
            for (std::size_t i = t; i < dir[k].len; i += stride) {
              group->offer(t, span[i]);
            }
          }
        };
        if (!pool_->submit(std::function<void()>(run_shard))) {
          run_shard();  // pool shut down: degrade to inline
        }
      }
      done.wait();
    }

    AIOT_OBS(
        if (obs_.dispatch_us != nullptr || obs_.tracer != nullptr) {
          const auto now = std::chrono::steady_clock::now();
          if (obs_.dispatch_us != nullptr) {
            obs_.dispatch_us->record(
                std::chrono::duration<double, std::micro>(now - phase_begin)
                    .count());
          }
          if (obs_.tracer != nullptr) {
            obs_.tracer->complete(obs_.track, "executor-dispatch",
                                  trace_begin, obs_.tracer->now_us());
          }
          phase_begin = now;  // the merge phase starts here
        });

    // Merge and reweight (Eq. 8), sub-streams in sorted order as always.
    // Each group's kept slice is appended straight into the output
    // bundle's arena — no intermediate per-stratum vector.
    out.sample.reserve_items(std::min(sample_size, batch.item_count()));
    for (std::size_t k = 0; k < dir.size(); ++k) {
      const ShardGroup::MergeStats merged =
          route_groups_[k]->merge_into(dir[k].id, out.sample);
      out.w_out.set(dir[k].id, infos_[k].weight * merged.weight_multiplier);
    }
    AIOT_OBS(
        if (obs_.merge_us != nullptr) {
          obs_.merge_us->record(std::chrono::duration<double, std::micro>(
                                    std::chrono::steady_clock::now() -
                                    phase_begin)
                                    .count());
        });

    // Keep the cache bounded under churning sub-stream ids (ephemeral
    // device/session ids would otherwise grow it for the process
    // lifetime): periodically drop groups idle for a full sweep period.
    if (calls_ % kEvictSweepPeriod == 0) {
      for (auto it = groups_.begin(); it != groups_.end();) {
        if (it->second.last_used + kEvictSweepPeriod <= calls_) {
          it = groups_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  std::size_t workers() const noexcept override { return workers_; }

  void save_state(CheckpointWriter& writer) const override {
    writer.put_u64(kPooledLaneTag);
    writer.put_u64(workers_);
    writer.put_rng(rng_.save_state());
    // calls_ drives the eviction sweep cadence only, but restoring it
    // keeps a restored lane's cache behaviour aligned with the
    // uninterrupted run (groups_ itself is rearmed every call).
    writer.put_u64(calls_);
  }

  void restore_state(CheckpointReader& reader) override {
    if (reader.get_u64() != kPooledLaneTag) {
      throw CheckpointError(
          "checkpoint: lane type mismatch (snapshot is not from a pooled "
          "lane)");
    }
    const std::uint64_t workers = reader.get_u64();
    if (workers != workers_) {
      // The shard count shapes RNG stream assignment (§III-E): restoring
      // across worker counts would silently change every future sample.
      throw CheckpointError(
          "checkpoint: lane worker count mismatch (" +
          std::to_string(workers) + " vs " + std::to_string(workers_) + ")");
    }
    rng_.restore_state(reader.get_rng());
    calls_ = reader.get_u64();
  }

 private:
  Rng rng_;
  WHSampConfig config_;
  std::unique_ptr<sampling::AllocationPolicy> policy_;
  std::size_t workers_;
  runtime::ThreadPool* pool_;
  std::size_t min_items_to_dispatch_;
  /// Long-lived shard groups, one per recently seen sub-stream;
  /// per-shard state and buffers persist across intervals so the
  /// steady-state hot path allocates only each interval's output
  /// vector. Groups idle for kEvictSweepPeriod calls are evicted.
  static constexpr std::uint64_t kEvictSweepPeriod = 256;
  struct GroupEntry {
    ShardGroup group;
    std::uint64_t last_used{0};
  };
  std::map<SubStreamId, GroupEntry> groups_;
  std::uint64_t calls_{0};
  /// Per-call scratch, kept as members so buffers persist: infos_ carries
  /// the per-stratum counts and resolved weights, route_groups_ the
  /// per-stratum shard group. Both are read-only while shard tasks run.
  std::vector<sampling::SubStreamInfo> infos_;
  /// Per-interval W^in_i from get_for_strata()'s block merge.
  std::vector<double> weights_scratch_;
  /// Per-interval N_i, indexed like infos_.
  std::vector<std::size_t> sizes_;
  std::vector<ShardGroup*> route_groups_;
  LaneObs obs_;
};

}  // namespace

PooledSamplingExecutor::PooledSamplingExecutor(Options options)
    : options_(options) {
  if (options_.workers_per_lane == 0) options_.workers_per_lane = 1;
  std::size_t threads = options_.pool_threads;
  if (threads == 0 && std::thread::hardware_concurrency() > 1) {
    threads = options_.workers_per_lane;
  }
  if (options_.workers_per_lane > 1 && threads > 0) {
    pool_ = std::make_unique<runtime::ThreadPool>(threads, options_.pool_seed);
  }
}

PooledSamplingExecutor::~PooledSamplingExecutor() = default;

std::shared_ptr<PooledSamplingExecutor> PooledSamplingExecutor::for_seed(
    std::size_t workers, std::uint64_t seed) {
  Options options;
  options.workers_per_lane = workers;
  options.pool_seed = seed ^ 0x9e3779b97f4a7c15ULL;
  return std::make_shared<PooledSamplingExecutor>(options);
}

void PooledSamplingExecutor::bind_obs(obs::StatsRegistry* stats,
                                      obs::Tracer* tracer,
                                      const std::string& scope) {
  obs_stats_ = stats;
  obs_tracer_ = tracer;
  obs_scope_ = scope;
}

std::unique_ptr<SamplingLane> PooledSamplingExecutor::create_lane(
    Rng rng, WHSampConfig config) {
  if (options_.workers_per_lane == 1) {
    // One shard == the sequential path; hand out a WHSampler lane so the
    // bit-identical guarantee is true by construction (and the lane
    // supports every allocation policy and reservoir algorithm).
    return std::make_unique<SequentialLane>(rng, std::move(config));
  }
  LaneObs lane_obs;
  if (obs_stats_ != nullptr || obs_tracer_ != nullptr) {
    const std::string lane_scope =
        (obs_scope_.empty() ? std::string("executor") : obs_scope_) +
        "/lane" + std::to_string(lane_counter_.fetch_add(1));
    if (obs_stats_ != nullptr) {
      lane_obs.dispatch_us = &obs_stats_->histogram(lane_scope + "/dispatch_us");
      lane_obs.merge_us = &obs_stats_->histogram(lane_scope + "/merge_us");
      lane_obs.items = &obs_stats_->counter(lane_scope + "/items");
      lane_obs.intervals = &obs_stats_->counter(lane_scope + "/intervals");
    }
    if (obs_tracer_ != nullptr) {
      lane_obs.tracer = obs_tracer_;
      lane_obs.track = obs_tracer_->register_track(lane_scope);
    }
  }
  return std::make_unique<PooledLane>(rng, std::move(config),
                                      options_.workers_per_lane, pool_.get(),
                                      options_.min_items_to_dispatch, lane_obs);
}

}  // namespace approxiot::core
