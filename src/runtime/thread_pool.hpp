// ThreadPool: the worker pool behind core::PooledSamplingExecutor, which
// runs within-node reservoir shards on it (the tree's node tasks run on
// the JobScheduler instead).
//
// Each worker owns a WorkerContext with a deterministic Rng: worker i's
// generator is the pool seed jumped i times (non-overlapping 2^128-step
// sub-sequences of one logical stream). Sampling tasks therefore stay
// reproducible run-to-run as long as the *assignment* of tasks to
// workers is deterministic; PooledSamplingExecutor sidesteps that by
// carrying each shard's RNG in the closure instead of the worker.
// wait_idle() gives callers an interval barrier when they need one
// without tearing the pool down.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "runtime/bounded_channel.hpp"

namespace approxiot::runtime {

/// Per-worker state handed to every task the worker runs.
struct WorkerContext {
  WorkerId id{};
  Rng rng;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1). `seed` roots every worker's
  /// RNG stream; two pools with equal seeds and equal task assignment
  /// produce identical random sequences.
  explicit ThreadPool(std::size_t threads,
                      std::uint64_t seed = 0x5eed5eedULL);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains queued tasks, then joins every worker.
  ~ThreadPool();

  /// Enqueues a task; blocks if the task queue is full (backpressure).
  /// Returns false once shutdown() has been called.
  bool submit(std::function<void(WorkerContext&)> task);

  /// Convenience overload for tasks that ignore the worker context.
  bool submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is in flight.
  void wait_idle();

  /// Stops accepting tasks, finishes queued ones, joins the workers.
  /// Idempotent; also called by the destructor.
  void shutdown();

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }
  [[nodiscard]] std::uint64_t tasks_completed() const {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    return completed_;
  }
  /// Tasks whose exception was caught (counted in tasks_completed too).
  [[nodiscard]] std::uint64_t tasks_failed() const {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    return failed_;
  }

 private:
  void worker_loop(WorkerContext context);

  BoundedChannel<std::function<void(WorkerContext&)>> queue_;
  std::vector<std::thread> workers_;

  mutable std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::uint64_t submitted_{0};
  std::uint64_t completed_{0};
  std::uint64_t failed_{0};
  bool shut_down_{false};
};

}  // namespace approxiot::runtime
