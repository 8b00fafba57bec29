#include "runner.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/adaptive.hpp"
#include "core/kernels/kernels.hpp"
#include "core/pipeline.hpp"

namespace edgebench {

namespace ac = approxiot::core;
namespace ar = approxiot::runtime;
namespace obs = approxiot::obs;

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Upper bound on intervals per phase; sizes the root tap's table.
constexpr std::size_t kMaxIntervals = std::size_t{1} << 17;
/// A phase stops at this age even if it has not closed min_windows.
constexpr double kHardCapSeconds = 120.0;
/// A traced phase ends early, at a window boundary, once the tracer holds
/// this many events; it keeps the trace file loadable (a wide tree emits
/// about three events per node-interval).
constexpr std::size_t kMaxTraceEvents = 500000;
/// Eq. 8 tolerance, relative to the exact count (the repository's own
/// conservation tests use the same bound).
constexpr double kConservationTolerance = 1e-6;

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Sleeps most of the way, then spins, so the open-loop generator starts
/// a push within a few microseconds of its due time when it is not late.
void wait_until_us(std::int64_t due) {
  constexpr std::int64_t kSpinUs = 200;
  for (;;) {
    const std::int64_t now = now_us();
    if (now >= due) return;
    if (due - now > kSpinUs) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(due - now - kSpinUs));
    }
  }
}

/// Keeps the generator thread on a CPU of its own for the life of a tree.
/// The scheduler's workers inherit the affinity of the thread that
/// constructs the tree, so the tree is built while the generator is bound
/// to every allowed CPU but the last, and the generator then moves to the
/// last. Left to the kernel, a worker woken by push_interval() sometimes
/// lands on the generator's own CPU and preempts it mid-push: the hot
/// leaf's push then takes ~1 ms instead of ~5 µs and delays the leaves
/// behind it. Whether that happens changes with the load on the rest of
/// the host, so unpinned runs of the same code fall into two latency
/// modes. The workers share the remaining CPUs, so they can move away
/// from a CPU the rest of the host is using. With fewer CPUs than
/// workers + 1 nothing is pinned.
class GeneratorPlacement {
 public:
  GeneratorPlacement() {
    CPU_ZERO(&original_);
    CPU_ZERO(&workers_);
    CPU_ZERO(&generator_);
    if (pthread_getaffinity_np(pthread_self(), sizeof original_,
                               &original_) != 0 ||
        CPU_COUNT(&original_) < static_cast<int>(kEventWorkers) + 1) {
      return;
    }
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &original_)) continue;
      if (last >= 0) CPU_SET(last, &workers_);
      last = cpu;
    }
    CPU_SET(last, &generator_);
    generator_cpu_ = last;
  }
  ~GeneratorPlacement() {
    // Best effort: a destructor must not throw.
    if (generator_cpu_ >= 0) {
      pthread_setaffinity_np(pthread_self(), sizeof original_, &original_);
    }
  }
  GeneratorPlacement(const GeneratorPlacement&) = delete;
  GeneratorPlacement& operator=(const GeneratorPlacement&) = delete;

  /// Call before constructing the tree, then generator() right after.
  void workers() { bind(workers_); }
  void generator() { bind(generator_); }
  /// -1 when nothing is pinned.
  [[nodiscard]] int generator_cpu() const { return generator_cpu_; }

 private:
  void bind(const cpu_set_t& set) {
    if (generator_cpu_ < 0) return;
    if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0) {
      throw std::runtime_error("pthread_setaffinity_np failed");
    }
  }

  cpu_set_t original_;
  cpu_set_t workers_;
  cpu_set_t generator_;
  int generator_cpu_{-1};
};

/// The root tap's record. fold_us, last_stamp and items are written only
/// by the tap, which runs on one scheduler worker at a time, and read by
/// the generator after drain()/stop(), which order them. `folded` is what
/// the closed-loop generator waits on.
struct TapState {
  std::vector<std::int64_t> fold_us;
  std::int64_t last_stamp{-1};
  std::uint64_t items{0};
  std::mutex mutex;
  std::condition_variable folded_cv;
  std::size_t folded{0};
};

/// EdgeTree mirror of the concurrent tree's window-synchronous feedback:
/// observe each closed window, publish when the proposal moved.
class OracleFeedback {
 public:
  OracleFeedback(const ar::ConcurrentTreeConfig& config, ac::EdgeTree& tree)
      : tree_(tree) {
    if (config.adaptive.enabled) {
      controller_ = std::make_unique<ac::AdaptiveController>(
          config.tree.sampling_fraction, config.adaptive.controller);
    }
  }

  void observe(const ac::ApproxResult& result) {
    if (controller_ == nullptr || result.sampled_items == 0) return;
    const double next = controller_->observe(result.sum);
    const auto& plane = tree_.control_plane();
    if (plane->snapshot()->budget.sampling_fraction != next) {
      plane->publish_fraction(next);
    }
  }

 private:
  ac::EdgeTree& tree_;
  std::unique_ptr<ac::AdaptiveController> controller_;
};

bool same_bits(const ac::ApproxResult& a, const ac::ApproxResult& b) {
  return a.sum.point == b.sum.point && a.sum.margin == b.sum.margin &&
         a.mean.point == b.mean.point && a.mean.margin == b.mean.margin &&
         a.estimated_count == b.estimated_count &&
         a.sampled_items == b.sampled_items;
}

}  // namespace

double items_per_s(const Phase& phase) {
  const std::int64_t last_fold =
      *std::max_element(phase.fold_us.begin(), phase.fold_us.end());
  const double span_s =
      static_cast<double>(last_fold - phase.first_push_us) * 1e-6;
  return span_s > 0.0 ? static_cast<double>(phase.items_ingested) / span_s
                      : 0.0;
}

std::vector<double> interval_latencies_us(const Phase& phase) {
  std::vector<double> latency;
  for (std::size_t k = 0; k < phase.fold_us.size(); ++k) {
    if (phase.fold_us[k] >= 0) {
      latency.push_back(
          static_cast<double>(phase.fold_us[k] - phase.due_us[k]));
    }
  }
  return latency;
}

std::vector<double> answer_latencies_us(const Phase& phase) {
  std::vector<double> answer;
  for (const Window& w : phase.windows) {
    answer.push_back(static_cast<double>(w.closed_us - w.last_due_us));
  }
  return answer;
}

Phase run_phase(const Workload& workload, Inputs& inputs, std::uint64_t seed,
                const PhaseOptions& options) {
  Phase phase;
  obs::StatsRegistry registry;
  obs::Tracer tracer;
  TapState tap;
  tap.fold_us.assign(kMaxIntervals, -1);

  ar::ConcurrentTreeConfig config = tree_config(workload, seed);
  config.root_tap = [state = &tap](const ac::SampledBundle& bundle) {
    const auto& items = bundle.sample.items();
    state->items += items.size();
    if (items.empty()) return;
    const std::int64_t stamp = items.front().created_at_us;
    if (stamp != state->last_stamp && stamp >= 0 &&
        static_cast<std::size_t>(stamp) < state->fold_us.size()) {
      state->fold_us[static_cast<std::size_t>(stamp)] = now_us();
      state->last_stamp = stamp;
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        ++state->folded;
      }
      state->folded_cv.notify_one();
    }
  };
  obs::Tracer* span_tracer = nullptr;
  obs::TrackId track = obs::ScopedSpan::kNoTrack;
  if (options.traced) {
    config.stats = &registry;
    config.tracer = &tracer;
    approxiot::core::kernels::bind_stats(&registry);
    span_tracer = &tracer;
    track = tracer.register_track("bench/generator");
  }

  GeneratorPlacement placement;
  placement.workers();
  auto tree = std::make_unique<ar::ConcurrentEdgeTree>(std::move(config));
  placement.generator();
  phase.generator_cpu = placement.generator_cpu();
  phase.node_count = tree->node_count();

  const std::size_t pool = inputs.pool.size();
  const std::int64_t t0 = now_us();
  const double cpu0 = process_cpu_s();
  std::size_t k = 0;
  for (;;) {
    // One window: kIntervalsPerWindow pushes, then drain() and close.
    for (std::size_t j = 0; j < kIntervalsPerWindow; ++j, ++k) {
      auto& interval = inputs.pool[k % pool];
      stamp_interval(interval, static_cast<std::int64_t>(k));
      std::int64_t due = 0;
      if (workload.period_us > 0) {
        due = t0 + static_cast<std::int64_t>(k) * workload.period_us;
        wait_until_us(due);
      } else {
        // An interval that never shows up in the root tap would stall the
        // closed loop for good; give up waiting so the check reports it.
        std::unique_lock<std::mutex> lock(tap.mutex);
        tap.folded_cv.wait_for(lock, std::chrono::seconds(10), [&] {
          return tap.folded + kClosedLoopInFlight > k;
        });
      }
      const auto push_start = std::chrono::steady_clock::now();
      const std::int64_t start_us = now_us();
      if (workload.period_us > 0) {
        phase.gen_lag_us.push_back(static_cast<double>(start_us - due));
      } else {
        due = start_us;
      }
      if (k == 0) phase.first_push_us = start_us;
      phase.due_us.push_back(due);
      {
        obs::ScopedSpan span(span_tracer, track, "push_interval");
        tree->push_interval(interval);
      }
      phase.push_us.push_back(elapsed_us(push_start));
      if (workload.query_after_push) {
        const auto query_start = std::chrono::steady_clock::now();
        obs::ScopedSpan span(span_tracer, track, "run_query");
        [[maybe_unused]] const ac::ApproxResult snapshot = tree->run_query();
        phase.query_us.push_back(elapsed_us(query_start));
      }
    }
    const auto drain_start = std::chrono::steady_clock::now();
    {
      obs::ScopedSpan span(span_tracer, track, "drain");
      tree->drain();
    }
    phase.drain_us.push_back(elapsed_us(drain_start));
    const auto close_start = std::chrono::steady_clock::now();
    Window window;
    {
      obs::ScopedSpan span(span_tracer, track, "close_window");
      window.result = tree->close_window();
    }
    window.closed_us = now_us();
    phase.close_us.push_back(elapsed_us(close_start));
    window.last_due_us = phase.due_us.back();
    for (std::size_t i = k - kIntervalsPerWindow; i < k; ++i) {
      window.exact_sum += inputs.exact_sum[i % pool];
      window.exact_count += inputs.exact_count[i % pool];
    }
    phase.windows.push_back(window);
    if (phase.windows.size() == options.min_windows) {
      obs::ScopedSpan span(span_tracer, track, "metrics");
      phase.at_prefix = tree->metrics();
    }

    const double age_s = static_cast<double>(now_us() - t0) * 1e-6;
    const bool enough = phase.windows.size() >= options.min_windows;
    const bool done =
        enough && (age_s >= options.seconds ||
                   (options.traced &&
                    tracer.event_count() >= kMaxTraceEvents));
    if (done || age_s >= kHardCapSeconds ||
        k + kIntervalsPerWindow > kMaxIntervals) {
      break;
    }
  }
  phase.cpu_s = process_cpu_s() - cpu0;
  phase.wall_s = static_cast<double>(now_us() - t0) * 1e-6;
  phase.at_end = tree->metrics();
  phase.items_ingested = phase.at_end.items_ingested;
  tree->stop();
  if (options.traced) {
    // Serialise while the tree is alive: the scheduler's job spans are
    // named by pointers into its own task table.
    approxiot::core::kernels::bind_stats(nullptr);
    phase.stats = registry.snapshot();
    phase.trace_events = tracer.event_count();
    phase.trace_json = tracer.to_chrome_json();
  }
  tree.reset();
  phase.fold_us.assign(tap.fold_us.begin(), tap.fold_us.begin() + k);
  phase.root_items = tap.items;
  return phase;
}

std::vector<double> measure_setup(const Workload& workload, std::uint64_t seed,
                                  std::size_t reps) {
  std::vector<double> seconds;
  for (std::size_t r = 0; r < reps; ++r) {
    ar::ConcurrentTreeConfig config = tree_config(workload, seed);
    const auto start = std::chrono::steady_clock::now();
    auto tree = std::make_unique<ar::ConcurrentEdgeTree>(std::move(config));
    seconds.push_back(elapsed_us(start) * 1e-6);
  }
  return seconds;
}

CheckResult check_phase(const Workload& workload, Inputs& inputs,
                        std::uint64_t seed, const Phase& phase) {
  CheckResult check;
  check.attempted = phase.fold_us.size() + phase.windows.size();

  std::uint64_t lost_intervals = 0;
  for (const std::int64_t fold : phase.fold_us) {
    if (fold < 0) ++lost_intervals;
  }
  if (lost_intervals > 0) {
    check.failed += lost_intervals;
    check.problems.push_back(std::to_string(lost_intervals) +
                             " intervals never reached the root");
  }

  std::vector<bool> window_failed(phase.windows.size(), false);
  for (std::size_t w = 0; w < phase.windows.size(); ++w) {
    const Window& window = phase.windows[w];
    const double exact = static_cast<double>(window.exact_count);
    const double restored =
        window.result.estimated_count + window.result.lost_weight;
    if (std::fabs(restored - exact) >
        kConservationTolerance * std::max(1.0, exact)) {
      window_failed[w] = true;
      check.problems.push_back("window " + std::to_string(w) +
                               ": Eq. 8 count " + std::to_string(restored) +
                               " != ingested " + std::to_string(exact));
    }
  }

  // Oracle: the sequential tree, fed the prefix with the same stamps.
  const std::size_t prefix =
      std::min(workload.oracle_windows, phase.windows.size());
  const ar::ConcurrentTreeConfig config = tree_config(workload, seed);
  ac::EdgeTreeConfig oracle_config = config.tree;
  if (config.adaptive.enabled) {
    oracle_config.control_plane = ac::make_control_plane(oracle_config);
  }
  ac::EdgeTree oracle(oracle_config);
  OracleFeedback feedback(config, oracle);
  const std::size_t pool = inputs.pool.size();
  double tick_s = 0.0;
  std::uint64_t oracle_items = 0;
  std::size_t k = 0;
  for (std::size_t w = 0; w < prefix; ++w) {
    for (std::size_t j = 0; j < kIntervalsPerWindow; ++j, ++k) {
      auto& interval = inputs.pool[k % pool];
      stamp_interval(interval, static_cast<std::int64_t>(k));
      const auto start = std::chrono::steady_clock::now();
      oracle.tick(interval);
      tick_s += elapsed_us(start) * 1e-6;
      oracle_items += inputs.exact_count[k % pool];
    }
    const ac::ApproxResult expected = oracle.close_window();
    feedback.observe(expected);
    if (!same_bits(expected, phase.windows[w].result)) {
      window_failed[w] = true;
      check.problems.push_back("window " + std::to_string(w) +
                               ": differs from the EdgeTree oracle");
    }
  }
  if (tick_s > 0.0) {
    check.oracle_items_per_s = static_cast<double>(oracle_items) / tick_s;
  }
  if (prefix < workload.oracle_windows) {
    ++check.failed;
    check.problems.push_back("phase closed fewer windows than the oracle "
                             "prefix");
  }
  for (const bool failed : window_failed) check.failed += failed ? 1 : 0;
  return check;
}

}  // namespace edgebench
