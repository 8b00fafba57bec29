// Tracer: track registration, span/instant emission (including from many
// threads at once — the TSan target), and the chrome://tracing exporter.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace approxiot::obs {
namespace {

TEST(ObsTraceTest, TracksAndEventsAreCounted) {
  Tracer tracer;
  const TrackId a = tracer.register_track("tree/L0/n0");
  const TrackId b = tracer.register_track("tree/root");
  EXPECT_NE(a, b);
  EXPECT_EQ(tracer.track_count(), 2u);

  tracer.complete(a, "stage-execute", 10, 25, 3);
  tracer.instant(b, "policy-publish", 4);
  tracer.complete(b, "window-close", 30, 40);
  EXPECT_EQ(tracer.event_count(), 3u);
}

TEST(ObsTraceTest, ChromeJsonCarriesTrackNamesAndEpochs) {
  Tracer tracer;
  const TrackId t = tracer.register_track("tree/L0/n0");
  tracer.complete(t, "stage-execute", 10, 25, 7);
  tracer.instant(t, "policy-publish", 8);

  const std::string json = tracer.to_chrome_json();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(json.back(), '}');
  // Track name metadata ("M") so the viewer labels the row.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("tree/L0/n0"), std::string::npos);
  // The span: complete event with duration and the epoch annotation.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":15"), std::string::npos);
  EXPECT_NE(json.find("\"policy_epoch\":7"), std::string::npos);
  // The instant: thread-scoped point event.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"policy_epoch\":8"), std::string::npos);
}

TEST(ObsTraceTest, JsonlEmitsOneLinePerEvent) {
  Tracer tracer;
  const TrackId t = tracer.register_track("lane0");
  tracer.complete(t, "executor-dispatch", 0, 5);
  tracer.instant(t, "drop");
  const std::string jsonl = tracer.to_jsonl();
  std::size_t lines = 0;
  for (char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("executor-dispatch"), std::string::npos);
}

TEST(ObsTraceTest, ScopedSpanEmitsOnDestruction) {
  Tracer tracer;
  const TrackId t = tracer.register_track("tree/root");
  {
    ScopedSpan span(&tracer, t, "root-merge");
    span.set_epoch(5);
  }
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_NE(tracer.to_chrome_json().find("\"policy_epoch\":5"),
            std::string::npos);
}

TEST(ObsTraceTest, NullTracerSpanIsANoOp) {
  ScopedSpan span(nullptr, ScopedSpan::kNoTrack, "nothing");
  span.set_epoch(1);  // must not crash
}

TEST(ObsTraceTest, ConcurrentEmissionFromManyThreads) {
  // Mirrors the runtime shape: every worker owns a track but tracks are
  // registered concurrently, and one shared control track receives
  // instants from everybody. TSan runs this file in CI.
  constexpr int kThreadCount = 8;
  constexpr int kEventsPerThread = 2000;
  Tracer tracer;
  const TrackId control = tracer.register_track("tree/control");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreadCount; ++t) {
    threads.emplace_back([&tracer, control, t] {
      const TrackId own =
          tracer.register_track("worker" + std::to_string(t));
      for (int i = 0; i < kEventsPerThread; ++i) {
        const std::int64_t begin = tracer.now_us();
        tracer.complete(own, "stage-execute", begin, begin + 1, i);
        if (i % 100 == 0) tracer.instant(control, "policy-publish", i);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(tracer.track_count(), 1u + kThreadCount);
  EXPECT_EQ(tracer.event_count(),
            static_cast<std::size_t>(kThreadCount) *
                (kEventsPerThread + kEventsPerThread / 100));
  // The exporter runs after workers stop; it must see every event.
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("worker0"), std::string::npos);
  EXPECT_NE(json.find("worker7"), std::string::npos);
}

}  // namespace
}  // namespace approxiot::obs
