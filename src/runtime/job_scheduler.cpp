#include "runtime/job_scheduler.hpp"

#include <stdexcept>
#include <utility>

#include "obs/hooks.hpp"

namespace approxiot::runtime {

namespace {

/// Which worker (of which scheduler) the current thread is. Lets
/// enqueue() route a wake raised from a task body onto that worker's own
/// deque — the LIFO fast path — while wakes from foreign threads (the
/// interval scheduler, push_interval callers) take the injection queue.
struct WorkerIdentity {
  const void* scheduler{nullptr};
  std::size_t index{0};
};
thread_local WorkerIdentity tl_worker;

}  // namespace

JobScheduler::JobScheduler(Options options) : options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  worker_queues_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    worker_queues_.push_back(std::make_unique<WorkerQueue>());
    AIOT_OBS(
        WorkerQueue& wq = *worker_queues_.back();
        const std::string scope = options_.scope + "/w" + std::to_string(w);
        if (options_.stats != nullptr) {
          wq.depth = &options_.stats->gauge(scope + "/runq_depth");
          wq.steals = &options_.stats->counter(scope + "/steals");
          wq.runs = &options_.stats->counter(scope + "/runs");
        } if (options_.tracer != nullptr) {
          wq.track = options_.tracer->register_track(scope);
        });
  }
}

JobScheduler::~JobScheduler() { shutdown(); }

JobScheduler::TaskId JobScheduler::add_task(
    [[maybe_unused]] std::string_view name, std::function<void()> body,
    std::function<std::int64_t()> epoch_probe) {
  std::lock_guard<std::mutex> lock(sleep_mutex_);
  if (started_) {
    throw std::logic_error("JobScheduler::add_task() after start()");
  }
  tasks_.emplace_back();
  Task& task = tasks_.back();
  AIOT_OBS(if (options_.tracer != nullptr) {
    task.trace_name = options_.tracer->intern(name);
  });
  task.body = std::move(body);
  task.epoch_probe = std::move(epoch_probe);
  return tasks_.size() - 1;
}

void JobScheduler::start() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    if (started_) return;
    started_ = true;
  }
  threads_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

void JobScheduler::notify(TaskId id) {
  Task& task = tasks_[id];
  for (;;) {
    std::uint8_t state = task.state.load();
    if (state == kIdle) {
      if (task.state.compare_exchange_weak(state, kQueued)) {
        enqueue(id);
        return;
      }
    } else if (state == kRunning) {
      if (task.state.compare_exchange_weak(state, kRunningNotified)) return;
    } else {
      // kQueued or kRunningNotified: a run that will observe everything
      // the notifier just made ready is already pending — coalesce.
      return;
    }
  }
}

void JobScheduler::notify_all() {
  for (TaskId id = 0; id < tasks_.size(); ++id) notify(id);
}

void JobScheduler::enqueue(TaskId id) {
  if (tl_worker.scheduler == this) {
    WorkerQueue& wq = *worker_queues_[tl_worker.index];
    std::lock_guard<std::mutex> lock(wq.mutex);
    wq.queue.push_back(id);
    AIOT_OBS(if (wq.depth != nullptr) {
      wq.depth->set(static_cast<double>(wq.queue.size()));
    });
  } else {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    inject_queue_.push_back(id);
  }
  pending_.fetch_add(1, std::memory_order_release);
  std::lock_guard<std::mutex> lock(sleep_mutex_);
  if (sleepers_ > 0) sleep_cv_.notify_one();
}

bool JobScheduler::next_task(std::size_t worker, TaskId& out) {
  // 1. Own deque, newest first: a wake the previous task raised runs
  //    while the channel payload behind it is still cache-hot.
  {
    WorkerQueue& wq = *worker_queues_[worker];
    std::lock_guard<std::mutex> lock(wq.mutex);
    if (!wq.queue.empty()) {
      out = wq.queue.back();
      wq.queue.pop_back();
      AIOT_OBS(if (wq.depth != nullptr) {
        wq.depth->set(static_cast<double>(wq.queue.size()));
      });
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // 2. Injection queue: wakes from outside the pool, oldest first.
  {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    if (!inject_queue_.empty()) {
      out = inject_queue_.front();
      inject_queue_.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // 3. Steal, oldest first, scanning victims round-robin from our
  //    right-hand neighbour so thieves spread instead of convoying.
  for (std::size_t i = 1; i < worker_queues_.size(); ++i) {
    WorkerQueue& victim =
        *worker_queues_[(worker + i) % worker_queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.queue.empty()) {
      out = victim.queue.front();
      victim.queue.pop_front();
      AIOT_OBS(if (victim.depth != nullptr) {
        victim.depth->set(static_cast<double>(victim.queue.size()));
      });
      pending_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      AIOT_OBS(WorkerQueue& wq = *worker_queues_[worker];
               if (wq.steals != nullptr) wq.steals->increment(););
      return true;
    }
  }
  return false;
}

void JobScheduler::run_task(std::size_t worker, TaskId id) {
  Task& task = tasks_[id];
  // Sole holder of the dequeued id: no CAS needed, nobody else moves a
  // task out of kQueued. (A notify landing here sees kQueued and
  // coalesces into the run we are about to perform — the body re-checks
  // its channels from scratch, so nothing the notifier signalled is
  // missed.)
  task.state.store(kRunning);

  [[maybe_unused]] WorkerQueue& wq = *worker_queues_[worker];
  [[maybe_unused]] std::int64_t t_begin = 0;
  AIOT_OBS(if (options_.tracer != nullptr &&
               wq.track != obs::ScopedSpan::kNoTrack) {
    t_begin = options_.tracer->now_us();
  });

  task.body();

  AIOT_OBS(
      if (wq.runs != nullptr) wq.runs->increment();
      if (options_.tracer != nullptr &&
          wq.track != obs::ScopedSpan::kNoTrack) {
        const std::int64_t epoch =
            task.epoch_probe ? task.epoch_probe() : 0;
        options_.tracer->complete(wq.track, task.trace_name, t_begin,
                                  options_.tracer->now_us(), epoch);
      });
  tasks_run_.fetch_add(1, std::memory_order_relaxed);

  std::uint8_t expected = kRunning;
  if (!task.state.compare_exchange_strong(expected, kIdle)) {
    // A notify raced the body (kRunningNotified): the body may have
    // already passed the channel that became ready, so run it again.
    task.state.store(kQueued);
    enqueue(id);
  }
}

void JobScheduler::worker_loop(std::size_t worker) {
  tl_worker.scheduler = this;
  tl_worker.index = worker;
  for (;;) {
    TaskId id{};
    if (next_task(worker, id)) {
      run_task(worker, id);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
    parks_.fetch_add(1, std::memory_order_relaxed);
    ++sleepers_;
    sleep_cv_.wait(lock, [this] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    --sleepers_;
  }
}

void JobScheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    if (stop_) return;
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

}  // namespace approxiot::runtime
