#include "obs/trace.hpp"

#include <sstream>

namespace approxiot::obs {

Tracer::Tracer() : birth_(std::chrono::steady_clock::now()) {}

TrackId Tracer::register_track(const std::string& name) {
  std::lock_guard<std::mutex> lock(tracks_mutex_);
  auto track = std::make_unique<Track>();
  track->name = name;
  tracks_.push_back(std::move(track));
  return static_cast<TrackId>(tracks_.size() - 1);
}

const char* Tracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(tracks_mutex_);
  auto it = names_.find(name);
  if (it == names_.end()) it = names_.emplace(name).first;
  return it->c_str();
}

std::int64_t Tracer::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - birth_)
      .count();
}

Tracer::Track* Tracer::track_at(TrackId id) {
  std::lock_guard<std::mutex> lock(tracks_mutex_);
  if (id >= tracks_.size()) return nullptr;
  return tracks_[id].get();
}

void Tracer::complete(TrackId track, const char* name, std::int64_t begin_us,
                      std::int64_t end_us, std::int64_t policy_epoch) {
  Track* t = track_at(track);
  if (t == nullptr) return;
  const std::int64_t dur = end_us >= begin_us ? end_us - begin_us : 0;
  std::lock_guard<std::mutex> lock(t->mutex);
  t->events.push_back(TraceEvent{name, begin_us, dur, policy_epoch});
}

void Tracer::instant(TrackId track, const char* name,
                     std::int64_t policy_epoch) {
  Track* t = track_at(track);
  if (t == nullptr) return;
  const std::int64_t ts = now_us();
  std::lock_guard<std::mutex> lock(t->mutex);
  t->events.push_back(TraceEvent{name, ts, -1, policy_epoch});
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(tracks_mutex_);
  std::size_t n = 0;
  for (const auto& t : tracks_) {
    std::lock_guard<std::mutex> tl(t->mutex);
    n += t->events.size();
  }
  return n;
}

std::size_t Tracer::track_count() const {
  std::lock_guard<std::mutex> lock(tracks_mutex_);
  return tracks_.size();
}

namespace {

void append_escaped(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(tracks_mutex_);
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const Track& t = *tracks_[i];
    const std::size_t tid = i + 1;
    if (!first) os << ',';
    first = false;
    // Metadata event names the track ("thread") in the viewer.
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"";
    append_escaped(os, t.name);
    os << "\"}}";
    std::lock_guard<std::mutex> tl(t.mutex);
    for (const TraceEvent& e : t.events) {
      os << ",{\"name\":\"" << e.name << "\",\"ph\":\""
         << (e.dur_us < 0 ? 'i' : 'X') << "\",\"pid\":1,\"tid\":" << tid
         << ",\"ts\":" << e.ts_us;
      if (e.dur_us >= 0) {
        os << ",\"dur\":" << e.dur_us;
      } else {
        os << ",\"s\":\"t\"";  // thread-scoped instant
      }
      if (e.policy_epoch >= 0) {
        os << ",\"args\":{\"policy_epoch\":" << e.policy_epoch << '}';
      }
      os << '}';
    }
  }
  os << "]}";
  return os.str();
}

std::string Tracer::to_jsonl() const {
  std::ostringstream os;
  std::lock_guard<std::mutex> lock(tracks_mutex_);
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const Track& t = *tracks_[i];
    std::lock_guard<std::mutex> tl(t.mutex);
    for (const TraceEvent& e : t.events) {
      os << "{\"track\":\"";
      append_escaped(os, t.name);
      os << "\",\"name\":\"" << e.name << "\",\"ts_us\":" << e.ts_us;
      if (e.dur_us >= 0) os << ",\"dur_us\":" << e.dur_us;
      if (e.policy_epoch >= 0) os << ",\"policy_epoch\":" << e.policy_epoch;
      os << "}\n";
    }
  }
  return os.str();
}

}  // namespace approxiot::obs
