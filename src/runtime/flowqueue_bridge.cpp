#include "runtime/flowqueue_bridge.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <utility>

#include "core/wire.hpp"
#include "obs/hooks.hpp"
#include "workload/substream.hpp"

namespace approxiot::runtime {

namespace {

/// A member name unique to this source instance. Broker::join_group keys
/// members by name, so two sources sharing one group name would
/// otherwise join as the same member and each consume every partition.
std::string unique_member_name(const std::string& group) {
  static std::atomic<std::uint64_t> instance_counter{0};
  return group + "-consumer#" +
         std::to_string(
             instance_counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

FlowQueueSource::FlowQueueSource(flowqueue::Broker& broker,
                                 ConcurrentEdgeTree& tree,
                                 FlowQueueSourceConfig config,
                                 [[maybe_unused]] obs::StatsRegistry* stats)
    : tree_(&tree),
      config_(std::move(config)),
      consumer_(broker, unique_member_name(config_.group)),
      clock_(config_.interval) {
  AIOT_OBS(if (stats != nullptr) {
    records_bridged_stat_ = &stats->counter("bridge/records_bridged");
    bytes_bridged_stat_ = &stats->counter("bridge/bytes_bridged");
    decode_errors_stat_ = &stats->counter("bridge/decode_errors");
    late_records_stat_ = &stats->counter("bridge/late_records");
    watermark_flushes_stat_ = &stats->counter("bridge/watermark_flushes");
    gap_intervals_skipped_stat_ =
        &stats->counter("bridge/gap_intervals_skipped");
    consumer_.bind_stats(*stats, "bridge/source/" + config_.topic);
  });
}

Status FlowQueueSource::start() {
  return consumer_.subscribe(config_.group, {config_.topic});
}

Result<std::size_t> FlowQueueSource::run_until_idle(std::size_t max_cycles) {
  std::size_t pushed = 0;
  for (std::size_t cycle = 0; cycle < max_cycles; ++cycle) {
    auto batch = consumer_.poll(config_.poll_batch);
    if (!batch.is_ok()) return batch.status();
    if (batch.value().empty()) {
      // Idle: every assigned partition is read to its end, so no record
      // below max_seen can still arrive — flushing the completed
      // intervals is now safe even with partitions of unequal depth.
      pushed += flush_through(max_seen_interval_ - 1);
      return pushed;
    }

    for (const flowqueue::Record& record : batch.value()) {
      auto bundle = core::decode_bundle(record.value);
      // A bundle carrying W^in is an already-weighted sample (e.g. a
      // FlowQueueSink's output fed back in). Its items would enter the
      // leaves as raw weight-1 data and bias SUM/COUNT, so it is refused.
      if (!bundle.is_ok() || !bundle.value().w_in.empty()) {
        ++decode_errors_;
        AIOT_OBS(if (decode_errors_stat_ != nullptr) {
          decode_errors_stat_->increment();
        });
        continue;
      }
      const std::int64_t seq = clock_.interval_of(record.timestamp).seq;
      max_seen_interval_ = std::max(max_seen_interval_, seq);
      if (seq < next_interval_) {
        // Its tick already fired — a force-flush ran, or a watermark
        // flush did and a producer then appended an older timestamp.
        ++late_records_;
        AIOT_OBS(if (late_records_stat_ != nullptr) {
          late_records_stat_->increment();
        });
        continue;
      }

      auto [it, inserted] = buffered_.try_emplace(
          seq, std::vector<std::vector<Item>>(tree_->leaf_count()));
      auto& per_leaf = it->second;
      // Same sub-stream-affinity sharding the sequential drivers use —
      // shared helper, so the policies cannot drift apart.
      auto sharded = workload::shard_by_substream(bundle.value().items,
                                                  tree_->leaf_count());
      for (std::size_t leaf = 0; leaf < sharded.size(); ++leaf) {
        per_leaf[leaf].insert(per_leaf[leaf].end(),
                              std::make_move_iterator(sharded[leaf].begin()),
                              std::make_move_iterator(sharded[leaf].end()));
      }
      ++records_bridged_;
      AIOT_OBS(if (records_bridged_stat_ != nullptr) {
        records_bridged_stat_->increment();
        bytes_bridged_stat_->increment(record.value.size());
      });
    }
    // Safety valve for topics that never go idle: bound the buffer by
    // force-flushing the oldest intervals. A lagging partition may then
    // deliver records for an already-fired tick; they are counted above.
    while (buffered_.size() > config_.max_buffered_intervals) {
      pushed += flush_through(buffered_.begin()->first);
    }

    // Partition-aware mid-stream flush: when every assigned partition is
    // read to its end offset, no record below max_seen can still be in
    // flight — the same safety argument the idle flush makes, available
    // *without* an empty poll. On a continuously hot topic (producers
    // appending between every poll) this is the only path that flushes
    // before the safety valve fills up.
    if (consumer_.caught_up()) {
      const std::size_t flushed = flush_through(max_seen_interval_ - 1);
      if (flushed > 0) {
        watermark_flushes_ += flushed;
        AIOT_OBS(if (watermark_flushes_stat_ != nullptr) {
          watermark_flushes_stat_->increment(flushed);
        });
      }
      pushed += flushed;
    }
  }
  return pushed;
}

std::size_t FlowQueueSource::flush() {
  return flush_through(max_seen_interval_);
}

core::Checkpoint FlowQueueSource::checkpoint() const {
  if (!buffered_.empty()) {
    throw core::CheckpointError(
        "FlowQueueSource::checkpoint: interval buffer not empty — flush() "
        "first, or the buffered records would be skipped on restore");
  }
  core::CheckpointWriter writer(core::CheckpointKind::kSource);
  writer.put_string(config_.topic);
  writer.put_i64(config_.interval.us);
  const auto& assignment = consumer_.assignment();
  writer.put_u64(assignment.size());
  for (const flowqueue::TopicPartition& tp : assignment) {
    writer.put_string(tp.topic);
    writer.put_u64(tp.partition);
    writer.put_i64(consumer_.position(tp));
  }
  writer.put_i64(next_interval_);
  writer.put_i64(max_seen_interval_);
  core::write_control_plane(writer, tree_->control_plane().get());
  return writer.finish();
}

void FlowQueueSource::restore(const core::Checkpoint& checkpoint) {
  core::CheckpointReader reader(checkpoint,
                                core::CheckpointKind::kSource);
  const std::string topic = reader.get_string();
  const std::int64_t interval_us = reader.get_i64();
  if (topic != config_.topic || interval_us != config_.interval.us) {
    throw core::CheckpointError(
        "FlowQueueSource::restore: checkpoint is for topic '" + topic +
        "', this source consumes '" + config_.topic + "'");
  }
  const std::uint64_t partitions = reader.get_u64();
  for (std::uint64_t i = 0; i < partitions; ++i) {
    flowqueue::TopicPartition tp;
    tp.topic = reader.get_string();
    tp.partition = static_cast<std::uint32_t>(reader.get_u64());
    const flowqueue::Offset offset = reader.get_i64();
    if (Status s = consumer_.seek(tp, offset); !s.is_ok()) {
      throw core::CheckpointError("FlowQueueSource::restore: seek failed: " +
                                  s.message());
    }
  }
  next_interval_ = reader.get_i64();
  max_seen_interval_ = reader.get_i64();
  // Re-applying the epoch here (not just the fraction) keeps replayed
  // output stamped exactly as the pre-failure run stamped it (§IV-B).
  core::restore_control_plane(reader, tree_->control_plane().get());
  reader.expect_exhausted();
  buffered_.clear();
}

std::size_t FlowQueueSource::flush_through(std::int64_t last_interval) {
  std::size_t pushed = 0;
  std::size_t gap_budget = config_.max_gap_intervals;
  std::uint64_t skipped = 0;
  while (next_interval_ <= last_interval) {
    auto it = buffered_.find(next_interval_);
    if (it != buffered_.end()) {
      tree_->push_interval(it->second);
      buffered_.erase(it);
      ++pushed;
      ++next_interval_;
    } else if (gap_budget > 0) {
      // A quiet interval: push an empty tick so window alignment is
      // preserved.
      tree_->push_interval(
          std::vector<std::vector<Item>>(tree_->leaf_count()));
      --gap_budget;
      ++pushed;
      ++next_interval_;
    } else {
      // Gap budget exhausted (one corrupt far-future timestamp could
      // imply millions of empty ticks): bulk-skip to the next interval
      // that actually has data, counting what was elided.
      const auto next_data = buffered_.lower_bound(next_interval_);
      const std::int64_t jump_to =
          next_data != buffered_.end() && next_data->first <= last_interval
              ? next_data->first
              : last_interval + 1;
      skipped += static_cast<std::uint64_t>(jump_to - next_interval_);
      next_interval_ = jump_to;
    }
  }
  if (skipped > 0) {
    gap_intervals_skipped_ += skipped;
    AIOT_OBS(if (gap_intervals_skipped_stat_ != nullptr) {
      gap_intervals_skipped_stat_->increment(skipped);
    });
  }
  return pushed;
}

FlowQueueSink::FlowQueueSink(flowqueue::Broker& broker, std::string topic,
                             [[maybe_unused]] obs::StatsRegistry* stats)
    : producer_(broker), topic_(std::move(topic)) {
  broker.ensure_topic(topic_, 1);
  AIOT_OBS(if (stats != nullptr) {
    bundles_published_stat_ = &stats->counter("bridge/bundles_published");
    bytes_published_stat_ = &stats->counter("bridge/bytes_published");
    publish_errors_stat_ = &stats->counter("bridge/publish_errors");
  });
}

void FlowQueueSink::publish(const core::SampledBundle& bundle) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Stamp with the newest item time so a downstream FlowQueueSource can
  // bucket the record into the interval it belongs to; an all-zero stamp
  // would collapse every window into interval 0.
  SimTime timestamp = SimTime::zero();
  for (const Item& item : bundle.sample.items()) {
    timestamp.us = std::max(timestamp.us, item.created_at_us);
  }
  auto payload = core::encode_bundle(bundle);
  [[maybe_unused]] const std::size_t bytes = payload.size();
  auto sent = producer_.send(topic_, "root", std::move(payload), timestamp);
  if (!sent.is_ok()) {
    ++publish_errors_;
    AIOT_OBS(if (publish_errors_stat_ != nullptr) {
      publish_errors_stat_->increment();
    });
    return;
  }
  ++bundles_published_;
  AIOT_OBS(if (bundles_published_stat_ != nullptr) {
    bundles_published_stat_->increment();
    bytes_published_stat_->increment(bytes);
  });
}

std::function<void(const core::SampledBundle&)> FlowQueueSink::as_root_tap() {
  return [this](const core::SampledBundle& bundle) { publish(bundle); };
}

}  // namespace approxiot::runtime
