// JobScheduler: a fixed worker pool draining a set of parkable tasks —
// the event-driven alternative to one OS thread per logical tree node.
//
// The discipline is gem5's eventq transplanted to a multi-worker world:
// work is a set of long-lived *tasks* (one per tree node), each woken by
// readiness events (channel pushes/pops/closes, interval ticks) rather
// than parked on a blocking call. A task's body runs until it can make
// no more progress, then returns; the next readiness event re-queues it.
// Node count is therefore a data-structure dimension — 10k–100k tasks
// multiplex over a handful of workers — instead of an OS-resource one.
//
// Scheduling: each worker owns a deque. The owner pushes and pops at the
// back (LIFO — a task woken by the task just run, e.g. a parent whose
// input channel the child just filled, runs next while its data is hot);
// idle workers steal from the FRONT of a victim's deque (FIFO — thieves
// take the oldest, least cache-warm work, the classic steal split).
// Wakes from threads outside the pool land on a shared injection queue.
//
// Wake protocol (per task): an atomic 4-state machine
//
//     kIdle ──notify──▶ kQueued ──dequeue──▶ kRunning ──body returns──▶ kIdle
//                          ▲                    │  ▲__________________,
//                          │                notify while running       │
//                          └──────requeue◀── kRunningNotified ─────────┘
//
// A notify during kQueued/kRunningNotified coalesces (the pending run
// will observe whatever the notifier produced, because bodies re-check
// their channels from scratch); a notify during kRunning forces exactly
// one re-run. Each task is therefore in at most one deque and never runs
// on two workers at once — which is what lets a task own mutable state
// (its pipeline stage, its RNG) without locks, and what keeps the
// concurrent tree bit-identical to the sequential EdgeTree.
//
// Determinism: the scheduler adds none of its own randomness. Which
// worker runs a task affects only wall-clock interleaving; every task's
// sampling RNG lives in the task (the node's stage), not the worker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace approxiot::runtime {

class JobScheduler {
 public:
  using TaskId = std::size_t;

  struct Options {
    /// Fixed worker count (clamped to >= 1). This is the whole OS-thread
    /// budget: tasks never get threads of their own.
    std::size_t workers{1};
    /// Observability (optional, unowned; must outlive the scheduler).
    /// Registers per-worker "<scope>/w{i}/..." runq depth, steal/run
    /// counters, and gives every worker a trace track whose job spans are
    /// annotated with the task's policy epoch (via the task's probe).
    obs::StatsRegistry* stats{nullptr};
    obs::Tracer* tracer{nullptr};
    std::string scope{"sched"};
  };

  explicit JobScheduler(Options options);

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// shutdown()s (drains queued wakes first).
  ~JobScheduler();

  /// Registers a task before start(). `body` runs until it can make no
  /// more progress and returns; it is re-run on every notify() that
  /// arrives at or after its previous run. `name` labels the task's
  /// trace spans (interned in the tracer, so the caller's string need
  /// not outlive anything). `epoch_probe` (optional) annotates the
  /// task's trace spans with a policy epoch.
  TaskId add_task(std::string_view name, std::function<void()> body,
                  std::function<std::int64_t()> epoch_probe = {});

  /// Spawns the workers. add_task() is rejected afterwards (task storage
  /// is read without locks by the workers).
  void start();

  /// Wakes a task: queues it if idle, marks it for re-run if running,
  /// coalesces if already pending. Safe from any thread, including task
  /// bodies and channel waiter callbacks. Spurious notifies are cheap
  /// (one atomic CAS) and harmless (bodies re-check readiness).
  void notify(TaskId id);

  /// Wakes every task — the chaos hook: correctness must not depend on
  /// wake precision, so a storm of spurious wakes must change nothing
  /// but wasted cycles. Also useful as a belt-and-braces kick after
  /// external state changes that touched many tasks (policy publishes).
  void notify_all();

  /// Stops the workers after draining all queued wakes, then joins them.
  /// Callers quiesce their tasks first (the tree waits for the root to
  /// finish); a notify racing the last worker's exit may go unserved.
  /// Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return options_.workers;
  }
  [[nodiscard]] std::size_t task_count() const {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    return tasks_.size();
  }
  /// Total task-body executions across all workers.
  [[nodiscard]] std::uint64_t tasks_run() const noexcept {
    return tasks_run_.load(std::memory_order_relaxed);
  }
  /// Dequeues that came from another worker's deque.
  [[nodiscard]] std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Times a worker found every queue empty and went to sleep.
  [[nodiscard]] std::uint64_t parks() const noexcept {
    return parks_.load(std::memory_order_relaxed);
  }

 private:
  enum State : std::uint8_t {
    kIdle = 0,
    kQueued,
    kRunning,
    kRunningNotified,
  };

  struct Task {
    /// The task name interned in options_.tracer (null without one).
    /// The tracer owns the string, so recorded spans stay valid after
    /// the scheduler is gone.
    const char* trace_name{nullptr};
    std::function<void()> body;
    std::function<std::int64_t()> epoch_probe;
    std::atomic<std::uint8_t> state{kIdle};
  };

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<TaskId> queue;
    obs::Gauge* depth{nullptr};
    obs::Counter* steals{nullptr};
    obs::Counter* runs{nullptr};
    obs::TrackId track{obs::ScopedSpan::kNoTrack};
  };

  void worker_loop(std::size_t worker);
  void enqueue(TaskId id);
  bool next_task(std::size_t worker, TaskId& out);
  void run_task(std::size_t worker, TaskId id);

  Options options_;
  bool started_{false};

  /// Stable after start(): workers index both without locks.
  std::deque<Task> tasks_;
  std::vector<std::unique_ptr<WorkerQueue>> worker_queues_;

  std::mutex inject_mutex_;
  std::deque<TaskId> inject_queue_;

  /// Sleep coordination: pending_ counts enqueued-but-not-dequeued task
  /// ids across every queue; workers sleep on the cv when they find
  /// nothing, and every enqueue wakes one sleeper.
  mutable std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_{0};
  std::size_t sleepers_{0};
  bool stop_{false};

  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> parks_{0};

  std::vector<std::thread> threads_;
};

}  // namespace approxiot::runtime
