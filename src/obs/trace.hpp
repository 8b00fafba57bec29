// Lightweight span tracer emitting chrome://tracing-compatible JSON.
//
// Model: the Tracer owns a set of *tracks* (one per tree node or driver
// processor — registered up front, each becoming a named
// "thread" row in the trace viewer) and each track owns a mutex-guarded
// event buffer, so concurrent emission from many worker threads never
// contends on a global lock. Events are:
//
//   complete ("X")  a span with begin timestamp + duration — stage
//                   execute, channel wait, root merge, window close
//   instant  ("i")  a point event — policy epoch publish, drops
//
// Every event can carry the resolved `policy_epoch` (args.policy_epoch in
// the JSON), which is how a latency spike on the timeline is attributed
// to the sampling policy that was live when it happened.
//
// Timestamps are microseconds from Tracer construction (steady clock).
// Span names must be string literals (const char*, not copied) — identity
// lives in the track name, so hot paths never build strings. A name built
// at run time goes through intern() once, at setup, and the returned
// pointer is used like a literal from then on.
//
// Exporters: to_chrome_json() produces {"traceEvents":[...]} loadable by
// chrome://tracing and Perfetto (ui.perfetto.dev); to_jsonl() emits one
// event object per line for streaming consumers.
//
// RAII capture: ScopedSpan records its construction time and emits one
// complete event at destruction; set_epoch() tags it. NullSpan is the
// zero-cost stand-in the AIOT_OBS_SPAN macro expands to under
// APPROXIOT_NO_STATS.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace approxiot::obs {

using TrackId = std::uint32_t;

/// One recorded event. dur_us < 0 marks an instant event.
struct TraceEvent {
  const char* name;        // string literal; never freed
  std::int64_t ts_us;      // begin timestamp, us since tracer birth
  std::int64_t dur_us;     // span duration; -1 for instants
  std::int64_t policy_epoch;  // -1 when not annotated
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Registers a named track (a "thread" row in the viewer) and returns
  /// its id. Thread-safe; tracks are never removed.
  [[nodiscard]] TrackId register_track(const std::string& name);

  /// Copies `name` into storage the tracer owns and returns a pointer
  /// that stays valid for the tracer's lifetime, so a run-time name can
  /// be passed to complete()/instant() and serialised after its source
  /// string is gone. Equal names share one copy. Thread-safe; meant for
  /// setup paths, not per-event use.
  [[nodiscard]] const char* intern(std::string_view name);

  /// Microseconds since tracer construction (steady clock).
  [[nodiscard]] std::int64_t now_us() const;

  /// Records a complete span on `track`. `name` must be a string literal.
  void complete(TrackId track, const char* name, std::int64_t begin_us,
                std::int64_t end_us, std::int64_t policy_epoch = -1);

  /// Records an instant event on `track`.
  void instant(TrackId track, const char* name,
               std::int64_t policy_epoch = -1);

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::size_t track_count() const;

  /// {"traceEvents":[...]} — loadable by chrome://tracing / Perfetto.
  /// Includes "M" thread_name metadata so tracks show their names.
  [[nodiscard]] std::string to_chrome_json() const;

  /// One JSON object per line (same event schema), for streaming.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  struct Track {
    std::string name;
    mutable std::mutex mutex;
    std::vector<TraceEvent> events;
  };

  [[nodiscard]] Track* track_at(TrackId id);

  std::chrono::steady_clock::time_point birth_;
  mutable std::mutex tracks_mutex_;  // guards tracks_ and names_, not the
                                     // event buffers
  std::vector<std::unique_ptr<Track>> tracks_;
  /// Interned span names; set nodes never move, so c_str() stays valid.
  std::set<std::string, std::less<>> names_;
};

/// RAII span: times construction -> destruction and emits one complete
/// event. Null tracer (or kNoTrack) makes every operation a no-op.
class ScopedSpan {
 public:
  static constexpr TrackId kNoTrack = static_cast<TrackId>(-1);

  ScopedSpan(Tracer* tracer, TrackId track, const char* name)
      : tracer_(tracer),
        track_(track),
        name_(name),
        begin_us_(tracer != nullptr && track != kNoTrack ? tracer->now_us()
                                                         : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr && track_ != kNoTrack) {
      tracer_->complete(track_, name_, begin_us_, tracer_->now_us(), epoch_);
    }
  }

  void set_epoch(std::int64_t epoch) noexcept { epoch_ = epoch; }

 private:
  Tracer* tracer_;
  TrackId track_;
  const char* name_;
  std::int64_t begin_us_;
  std::int64_t epoch_{-1};
};

/// The APPROXIOT_NO_STATS stand-in: same surface, no effect, no state.
class NullSpan {
 public:
  NullSpan(const void*, TrackId, const char*) noexcept {}
  void set_epoch(std::int64_t) noexcept {}
};

}  // namespace approxiot::obs
