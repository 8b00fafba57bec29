// Bridges between the flowqueue (Kafka-style) pipeline and the concurrent
// runtime, so the two transports compose instead of competing:
//
//   FlowQueueSource — consumes wire-encoded bundles from a topic, groups
//   them into intervals by record timestamp, and feeds them to a
//   ConcurrentEdgeTree as if they came from local sensors. Items are
//   sharded over the leaves by sub-stream id, the same sharding the
//   sequential drivers use. Each source joins its consumer group as its
//   own member, so several sources (each feeding its own tree) in one
//   group split the topic's partitions between them.
//
//   FlowQueueSink — publishes the root's sampled output bundles back into
//   a topic (hook it up via ConcurrentTreeConfig::root_tap), closing the
//   loop for downstream analytics consumers.
//
// Together they are the paper's Kafka deployment (§IV-B, Fig. 4): topic
// -> source -> tree (the sampling module at every node) -> sink -> root
// answer. One tree is the whole pipeline; layers do not hop over
// intermediate topics.
//
// Both count into an optional obs::StatsRegistry under "bridge/..."
// (records bridged, bytes, decode errors, bundles published), resolving
// the counters once at construction. The source also exports its
// consumer's watermarks under "bridge/source/{topic}/..." (lag,
// watermark age, caught_up, assigned partitions, records polled; see
// flowqueue::Consumer::bind_stats), refreshed on every poll.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "flowqueue/broker.hpp"
#include "flowqueue/consumer.hpp"
#include "flowqueue/producer.hpp"
#include "obs/stats.hpp"
#include "runtime/concurrent_tree.hpp"

namespace approxiot::runtime {

struct FlowQueueSourceConfig {
  std::string topic;
  std::string group{"runtime-bridge"};
  /// Interval length used to bucket record timestamps into tree ticks.
  SimTime interval{SimTime::from_seconds(1.0)};
  std::size_t poll_batch{512};
  /// Safety valve: when more than this many intervals are buffered (the
  /// topic never goes idle), the oldest are force-flushed. Records for a
  /// force-flushed interval that arrive later are counted as late and
  /// discarded, so size this above the consumer's worst poll lag.
  std::size_t max_buffered_intervals{1024};
  /// Sanity bound on quiet gaps: at most this many *empty* ticks are
  /// pushed per flush; a larger gap (e.g. one corrupt far-future
  /// timestamp) is skipped and counted instead of flooding the tree
  /// with empty intervals for hours.
  std::size_t max_gap_intervals{1000};
};

class FlowQueueSource {
 public:
  FlowQueueSource(flowqueue::Broker& broker, ConcurrentEdgeTree& tree,
                  FlowQueueSourceConfig config,
                  obs::StatsRegistry* stats = nullptr);

  /// Joins the consumer group; call once before pumping.
  Status start();

  /// Polls until the topic is drained. Completed intervals flush as soon
  /// as every assigned partition is provably read past them: either the
  /// consumer's per-partition watermarks show all partitions caught up
  /// to their end offsets (the mid-stream path — essential on
  /// continuously hot topics that never poll empty), or a poll comes
  /// back empty. A timestamp-only watermark would not be safe here (poll
  /// round-robins partitions, so a mid-stream timestamp could outrun a
  /// lagging partition and lose its records); the offset check is.
  /// Returns the number of intervals pushed. Call flush() afterwards to
  /// release the trailing interval.
  Result<std::size_t> run_until_idle(std::size_t max_cycles = 1'000'000);

  /// Pushes everything still buffered (including gaps, as empty
  /// intervals, so window alignment survives quiet periods).
  std::size_t flush();

  [[nodiscard]] std::uint64_t records_bridged() const noexcept {
    return records_bridged_;
  }
  /// Records refused: payloads that do not decode, and bundles that
  /// carry a W^in (an already-weighted sample, e.g. a FlowQueueSink's
  /// output). The source feeds raw items only; re-sampling a weighted
  /// sample as weight-1 data would bias every estimate.
  [[nodiscard]] std::uint64_t decode_errors() const noexcept {
    return decode_errors_;
  }
  /// Records discarded because their interval was already flushed (only
  /// possible after a max_buffered_intervals force-flush).
  [[nodiscard]] std::uint64_t late_records() const noexcept {
    return late_records_;
  }
  /// Empty gap ticks elided by the max_gap_intervals bound.
  [[nodiscard]] std::uint64_t gap_intervals_skipped() const noexcept {
    return gap_intervals_skipped_;
  }
  /// Intervals flushed mid-stream because the consumer's per-partition
  /// watermarks showed every partition read to its end (no idle poll
  /// needed — the hot-topic path).
  [[nodiscard]] std::uint64_t watermark_flushes() const noexcept {
    return watermark_flushes_;
  }

  /// Serializes the replay cursor: per-partition consumer offsets, the
  /// interval counters, and the tree's control-plane epoch + budget. Call
  /// after flush() — a non-empty interval buffer throws, because those
  /// records sit behind already-advanced offsets and a restore would skip
  /// them silently.
  [[nodiscard]] core::Checkpoint checkpoint() const;

  /// Resumes from a checkpoint() snapshot: seeks every partition back to
  /// its recorded offset and re-installs the policy epoch on the tree's
  /// control plane (so replayed output carries the same epoch stamps).
  /// Call after start(). Re-polled records whose interval is below the
  /// restored cursor are counted as late_records and dropped — the
  /// mechanism that makes replay double-count-free even when offsets are
  /// rewound conservatively.
  void restore(const core::Checkpoint& checkpoint);

 private:
  std::size_t flush_through(std::int64_t last_interval);

  ConcurrentEdgeTree* tree_;
  FlowQueueSourceConfig config_;
  /// "bridge/..." counters, resolved once at construction; null when no
  /// registry is bound.
  obs::Counter* records_bridged_stat_{nullptr};
  obs::Counter* bytes_bridged_stat_{nullptr};
  obs::Counter* decode_errors_stat_{nullptr};
  obs::Counter* late_records_stat_{nullptr};
  obs::Counter* watermark_flushes_stat_{nullptr};
  obs::Counter* gap_intervals_skipped_stat_{nullptr};
  flowqueue::Consumer consumer_;
  IntervalClock clock_;

  /// interval seq -> per-leaf item buffers.
  std::map<std::int64_t, std::vector<std::vector<Item>>> buffered_;
  std::int64_t next_interval_{0};
  std::int64_t max_seen_interval_{-1};
  std::uint64_t records_bridged_{0};
  std::uint64_t decode_errors_{0};
  std::uint64_t late_records_{0};
  std::uint64_t gap_intervals_skipped_{0};
  std::uint64_t watermark_flushes_{0};
};

class FlowQueueSink {
 public:
  /// Publishes to `topic` (created with one partition if absent).
  FlowQueueSink(flowqueue::Broker& broker, std::string topic,
                obs::StatsRegistry* stats = nullptr);

  /// Thread-safe: callable from the runtime's root worker.
  void publish(const core::SampledBundle& bundle);

  /// Adapter for ConcurrentTreeConfig::root_tap.
  [[nodiscard]] std::function<void(const core::SampledBundle&)> as_root_tap();

  [[nodiscard]] std::uint64_t bundles_published() const noexcept {
    return bundles_published_;
  }
  [[nodiscard]] std::uint64_t publish_errors() const noexcept {
    return publish_errors_;
  }

 private:
  flowqueue::Producer producer_;
  std::string topic_;
  /// "bridge/..." counters, resolved once at construction; null when no
  /// registry is bound.
  obs::Counter* bundles_published_stat_{nullptr};
  obs::Counter* bytes_published_stat_{nullptr};
  obs::Counter* publish_errors_stat_{nullptr};
  std::mutex mutex_;
  std::uint64_t bundles_published_{0};
  std::uint64_t publish_errors_{0};
};

}  // namespace approxiot::runtime
