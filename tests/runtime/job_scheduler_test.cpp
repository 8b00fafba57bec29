// JobScheduler: task completion on a small pool, the 4-state wake
// machine (coalescing, notify-while-running re-run, mutual exclusion),
// work stealing, the notify_all chaos hook, and the obs surface (stats
// and the lifetime of task-named trace spans).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "runtime/job_scheduler.hpp"

namespace approxiot::runtime {
namespace {

/// Spin-waits (with yields) until `done` or the deadline; the scheduler
/// has no "quiescent" query by design (tasks are long-lived), so tests
/// watch their own completion flags.
template <typename Pred>
bool wait_for(Pred done, std::chrono::milliseconds deadline =
                             std::chrono::milliseconds(5000)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!done()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(JobSchedulerTest, RunsEveryNotifiedTaskOnAFixedPool) {
  JobScheduler::Options options;
  options.workers = 2;
  JobScheduler scheduler(std::move(options));

  constexpr std::size_t kTasks = 100;
  std::atomic<std::size_t> runs{0};
  for (std::size_t i = 0; i < kTasks; ++i) {
    scheduler.add_task(std::string("t").append(std::to_string(i)),
                       [&runs] { runs.fetch_add(1); });
  }
  EXPECT_EQ(scheduler.task_count(), kTasks);
  EXPECT_EQ(scheduler.worker_count(), 2u);

  scheduler.start();
  scheduler.notify_all();
  EXPECT_TRUE(wait_for([&] { return runs.load() >= kTasks; }));
  scheduler.shutdown();

  // Every task ran at least once; coalescing may not have folded anything
  // here (one notify each), so the counts match exactly.
  EXPECT_EQ(runs.load(), kTasks);
  EXPECT_EQ(scheduler.tasks_run(), kTasks);
}

TEST(JobSchedulerTest, AddTaskAfterStartIsRejected) {
  JobScheduler scheduler({});
  scheduler.add_task("before", [] {});
  scheduler.start();
  EXPECT_THROW(scheduler.add_task("after", [] {}), std::logic_error);
  scheduler.shutdown();
}

TEST(JobSchedulerTest, NotifiesCoalesceWhileQueued) {
  // A burst of notifies against an idle task must fold into ONE run: the
  // first moves kIdle->kQueued, the rest see kQueued and return. A body
  // observes everything the notifiers made ready, so nothing is lost.
  JobScheduler::Options options;
  options.workers = 1;
  JobScheduler scheduler(std::move(options));

  std::atomic<int> gate_runs{0};
  std::atomic<int> burst_runs{0};
  std::atomic<bool> gate_entered{false};
  std::atomic<bool> gate_release{false};
  // Task 0 occupies the single worker while we burst-notify task 1.
  scheduler.add_task("gate", [&] {
    gate_runs.fetch_add(1);
    gate_entered.store(true);
    while (!gate_release.load()) std::this_thread::yield();
  });
  const auto burst = scheduler.add_task("burst",
                                        [&] { burst_runs.fetch_add(1); });

  scheduler.start();
  scheduler.notify(0);
  ASSERT_TRUE(wait_for([&] { return gate_entered.load(); }));
  for (int i = 0; i < 1000; ++i) scheduler.notify(burst);  // all coalesce
  gate_release.store(true);

  EXPECT_TRUE(wait_for([&] { return burst_runs.load() >= 1; }));
  scheduler.shutdown();
  EXPECT_EQ(burst_runs.load(), 1);
  EXPECT_EQ(gate_runs.load(), 1);
}

TEST(JobSchedulerTest, NotifyDuringRunForcesExactlyOneReRun) {
  // The kRunning -> kRunningNotified edge: a readiness event landing
  // while the body executes may have been missed by it, so the task must
  // run once more — and a second notify in the same window coalesces.
  JobScheduler::Options options;
  options.workers = 1;
  JobScheduler scheduler(std::move(options));

  std::atomic<int> runs{0};
  std::atomic<bool> in_body{false};
  std::atomic<bool> release{false};
  const auto id = scheduler.add_task("self", [&] {
    runs.fetch_add(1);
    if (runs.load() == 1) {
      in_body.store(true);
      while (!release.load()) std::this_thread::yield();
    }
  });

  scheduler.start();
  scheduler.notify(id);
  ASSERT_TRUE(wait_for([&] { return in_body.load(); }));
  scheduler.notify(id);  // kRunning -> kRunningNotified
  scheduler.notify(id);  // coalesces into the pending re-run
  release.store(true);

  EXPECT_TRUE(wait_for([&] { return runs.load() >= 2; }));
  // Give a wrong implementation the chance to over-run before asserting.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  scheduler.shutdown();
  EXPECT_EQ(runs.load(), 2);
}

TEST(JobSchedulerTest, ATaskNeverRunsOnTwoWorkersAtOnce) {
  // The property the event-driven tree's lock-free node state rests on.
  JobScheduler::Options options;
  options.workers = 4;
  JobScheduler scheduler(std::move(options));

  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<int> runs{0};
  const auto id = scheduler.add_task("exclusive", [&] {
    const int now = concurrent.fetch_add(1) + 1;
    int seen = max_concurrent.load();
    while (now > seen && !max_concurrent.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::yield();
    concurrent.fetch_sub(1);
    runs.fetch_add(1);
  });

  scheduler.start();
  std::vector<std::thread> notifiers;
  for (int t = 0; t < 4; ++t) {
    notifiers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) scheduler.notify(id);
    });
  }
  for (auto& t : notifiers) t.join();
  EXPECT_TRUE(wait_for([&] { return runs.load() >= 1; }));
  scheduler.shutdown();

  EXPECT_EQ(max_concurrent.load(), 1);
  EXPECT_GE(runs.load(), 1);
}

TEST(JobSchedulerTest, IdleWorkersStealQueuedWork) {
  // One task body wakes many siblings: all those wakes land on the
  // waking worker's own deque (the LIFO fast path), so the only way the
  // other workers ever run one is by stealing.
  JobScheduler::Options options;
  options.workers = 3;
  JobScheduler scheduler(std::move(options));

  constexpr std::size_t kChildren = 64;
  std::atomic<std::size_t> child_runs{0};
  std::mutex worker_ids_mutex;
  std::set<std::thread::id> worker_ids;
  for (std::size_t i = 0; i < kChildren; ++i) {
    scheduler.add_task("child" + std::to_string(i), [&] {
      {
        std::lock_guard<std::mutex> lock(worker_ids_mutex);
        worker_ids.insert(std::this_thread::get_id());
      }
      // Linger long enough that one worker cannot drain everything
      // before its siblings wake up and come stealing.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      child_runs.fetch_add(1);
    });
  }
  const auto fan_out = scheduler.add_task("fan-out", [&] {
    for (std::size_t i = 0; i < kChildren; ++i) scheduler.notify(i);
  });

  scheduler.start();
  scheduler.notify(fan_out);
  EXPECT_TRUE(wait_for([&] { return child_runs.load() >= kChildren; }));
  scheduler.shutdown();

  EXPECT_EQ(child_runs.load(), kChildren);
  EXPECT_GE(scheduler.steals(), 1u);
  // More than one worker actually participated.
  EXPECT_GE(worker_ids.size(), 2u);
}

TEST(JobSchedulerTest, NotifyAllStormIsHarmless) {
  // The chaos hook: storms of spurious wakes may only waste cycles.
  JobScheduler::Options options;
  options.workers = 2;
  JobScheduler scheduler(std::move(options));

  constexpr int kTasks = 16;
  std::atomic<int> work_done{0};
  for (int i = 0; i < kTasks; ++i) {
    // Each task does its "real work" exactly once; later (spurious) runs
    // find nothing to do, like an event task re-checking its channels.
    auto flag = std::make_shared<std::atomic<bool>>(false);
    const std::string name = std::string("t").append(std::to_string(i));
    scheduler.add_task(name, [&work_done, flag] {
      bool expected = false;
      if (flag->compare_exchange_strong(expected, true)) {
        work_done.fetch_add(1);
      }
    });
  }
  scheduler.start();
  for (int storm = 0; storm < 50; ++storm) scheduler.notify_all();
  EXPECT_TRUE(wait_for([&] { return work_done.load() >= kTasks; }));
  scheduler.shutdown();
  EXPECT_EQ(work_done.load(), kTasks);
  EXPECT_GE(scheduler.tasks_run(), static_cast<std::uint64_t>(kTasks));
}

TEST(JobSchedulerTest, RegistersPerWorkerStats) {
  obs::StatsRegistry stats;
  JobScheduler::Options options;
  options.workers = 2;
  options.stats = &stats;
  options.scope = "testsched";
  JobScheduler scheduler(std::move(options));

  std::atomic<int> runs{0};
  const auto id = scheduler.add_task("only", [&] { runs.fetch_add(1); });
  scheduler.start();
  scheduler.notify(id);
  ASSERT_TRUE(wait_for([&] { return runs.load() >= 1; }));
  scheduler.shutdown();

#ifdef APPROXIOT_NO_STATS
  // Hooks compiled out: nothing registers, and that is the contract.
  EXPECT_TRUE(stats.snapshot().counters.empty());
#else
  const auto snapshot = stats.snapshot();
  ASSERT_TRUE(snapshot.counters.count("testsched/w0/runs"));
  ASSERT_TRUE(snapshot.counters.count("testsched/w1/runs"));
  ASSERT_TRUE(snapshot.counters.count("testsched/w0/steals"));
  ASSERT_TRUE(snapshot.gauges.count("testsched/w0/runq_depth"));
  EXPECT_EQ(snapshot.counters.at("testsched/w0/runs") +
                snapshot.counters.at("testsched/w1/runs"),
            scheduler.tasks_run());
#endif
}

TEST(JobSchedulerTest, ShutdownDrainsQueuedWakesAndIsIdempotent) {
  JobScheduler::Options options;
  options.workers = 2;
  JobScheduler scheduler(std::move(options));

  constexpr std::size_t kTasks = 32;
  std::atomic<std::size_t> runs{0};
  for (std::size_t i = 0; i < kTasks; ++i) {
    scheduler.add_task(std::string("t").append(std::to_string(i)),
                       [&runs] { runs.fetch_add(1); });
  }
  scheduler.start();
  scheduler.notify_all();
  scheduler.shutdown();  // must drain the queued wakes before joining
  EXPECT_EQ(runs.load(), kTasks);
  scheduler.shutdown();  // idempotent
  EXPECT_EQ(runs.load(), kTasks);
}

TEST(JobSchedulerTest, TraceOutlivesSchedulerAndTaskNames) {
  // Task spans name the task; the trace must stay serialisable after the
  // scheduler (and the caller's name strings) are gone. Under ASan a
  // dangling name pointer fails here.
  obs::Tracer tracer;
  std::atomic<int> runs{0};
  {
    JobScheduler::Options options;
    options.workers = 2;
    options.tracer = &tracer;
    options.scope = "tracesched";
    JobScheduler scheduler(std::move(options));
    for (int i = 0; i < 4; ++i) {
      const std::string name =
          std::string("task-with-a-long-heap-allocated-name-")
              .append(std::to_string(i));
      scheduler.add_task(name, [&runs] { runs.fetch_add(1); });
    }
    scheduler.start();
    scheduler.notify_all();
    ASSERT_TRUE(wait_for([&] { return runs.load() >= 4; }));
    scheduler.shutdown();
  }
  const std::string json = tracer.to_chrome_json();
  const std::string jsonl = tracer.to_jsonl();
#ifdef APPROXIOT_NO_STATS
  EXPECT_EQ(tracer.event_count(), 0u);
#else
  EXPECT_EQ(tracer.event_count(), 4u);
  for (int i = 0; i < 4; ++i) {
    const std::string name =
        std::string("\"task-with-a-long-heap-allocated-name-")
            .append(std::to_string(i))
            .append("\"");
    EXPECT_NE(json.find(name), std::string::npos) << name;
    EXPECT_NE(jsonl.find(name), std::string::npos) << name;
  }
#endif
}

TEST(TracerInternTest, EqualNamesShareOneStableCopy) {
  obs::Tracer tracer;
  std::string name = "stage";
  const char* first = tracer.intern(name);
  name = "overwritten";
  EXPECT_STREQ(first, "stage");
  EXPECT_EQ(tracer.intern("stage"), first);
  EXPECT_NE(tracer.intern("other"), first);
}

}  // namespace
}  // namespace approxiot::runtime
