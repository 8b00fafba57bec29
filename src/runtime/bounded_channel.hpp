// BoundedChannel: a fixed-capacity MPSC/MPMC queue with close semantics —
// the edge between two concurrently-running tree nodes.
//
// The capacity bound is what turns the channel into a *backpressure*
// mechanism: a fast child filling its parent's inbox either blocks (the
// default, lossless) or drops the newest message and counts the loss.
// Dropping whole interval messages is itself a sampling decision the
// ApproxIoT estimators can absorb — a dropped interval is equivalent to a
// sensor that produced nothing that interval (the Fig. 3 carry-over rule
// keeps later intervals consistent) — so overloaded deployments can trade
// bounded memory for a lower effective sampling fraction. The dropped
// count is surfaced so operators can see exactly how much was shed.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obs/hooks.hpp"

namespace approxiot::runtime {

/// Optional per-channel instrumentation, bound after construction by the
/// runtime that owns the channel (the tree binds one per edge). All
/// pointers may be null; unbound channels pay nothing beyond a null check,
/// and APPROXIOT_NO_STATS compiles the checks away entirely.
struct ChannelStats {
  obs::Gauge* depth{nullptr};            ///< queue size after push/pop
  obs::Histogram* block_wait_us{nullptr};  ///< producer stall (kBlock, full)
  obs::Counter* dropped{nullptr};        ///< kDropNewest discards
};

/// Readiness notification for event-driven endpoints. Waiters are plain
/// callbacks, not condition variables, and fire only for an endpoint that
/// is PARKED — one that found the channel unusable and went to sleep:
///   - the consumer parks when try_pop() finds the channel empty (a new
///     channel counts its consumer as parked, so the first push wakes
///     it); the next successful push fires the readable waiter once and
///     unparks it;
///   - the producer parks when try_push_from() finds the channel full;
///     the next pop fires the writable waiter once and unparks it;
///   - close() fires both waiters, parked or not.
/// A push or pop while the other side is active fires nothing: an
/// endpoint that never parked re-checks the channel on its own. The
/// parked flags change under the channel's lock and the waiters run
/// OUTSIDE it, after the state change. Invocations are still hints, never
/// proofs — a racing consumer may empty the channel between the push and
/// the waiter firing — so receivers must re-check with try_pop()/
/// try_push_from() and treat a fruitless wake as spurious (which re-parks
/// them). A kDropNewest push that sheds its value raises no readable
/// event (nothing became poppable).
using ChannelWaiter = std::function<void()>;

/// What a producer does when the channel is full.
enum class BackpressurePolicy {
  kBlock,       ///< push() waits for space (lossless, propagates pressure)
  kDropNewest,  ///< push() discards the incoming value and counts it
};

[[nodiscard]] constexpr const char* backpressure_policy_name(
    BackpressurePolicy policy) noexcept {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDropNewest:
      return "drop-newest";
  }
  return "?";
}

template <typename T>
class BoundedChannel {
 public:
  explicit BoundedChannel(std::size_t capacity,
                          BackpressurePolicy policy = BackpressurePolicy::kBlock)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  BoundedChannel(const BoundedChannel&) = delete;
  BoundedChannel& operator=(const BoundedChannel&) = delete;

  /// Binds observability sinks. Call before producers/consumers start
  /// (the struct is copied; later rebinding would race with push/pop).
  void bind_stats(const ChannelStats& stats) { stats_ = stats; }

  /// Installs the readiness waiters (see ChannelWaiter). Like bind_stats,
  /// wiring happens before producers/consumers start; rebinding while the
  /// channel is live would race with the un-locked invocation sites.
  void set_readable_waiter(ChannelWaiter waiter) {
    readable_waiter_ = std::move(waiter);
  }
  void set_writable_waiter(ChannelWaiter waiter) {
    writable_waiter_ = std::move(waiter);
  }

  /// Enqueues `value`. Under kBlock, waits until space or close; under
  /// kDropNewest a full channel discards the value immediately. Returns
  /// true iff the value was enqueued (false == dropped or channel closed).
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (policy_ == BackpressurePolicy::kDropNewest) {
      if (closed_) return false;
      if (queue_.size() >= capacity_) {
        ++dropped_;
        AIOT_OBS(if (stats_.dropped != nullptr) stats_.dropped->increment(););
        return false;
      }
    } else {
      if (closed_ || queue_.size() >= capacity_) {
        // Producer is about to stall (or learn of close); time the wait
        // only on this slow path so uncontended pushes read no clock.
        AIOT_OBS(
            if (stats_.block_wait_us != nullptr && !closed_ &&
                queue_.size() >= capacity_) {
              const auto begin = std::chrono::steady_clock::now();
              not_full_.wait(lock, [this] {
                return closed_ || queue_.size() < capacity_;
              });
              stats_.block_wait_us->record(
                  std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - begin)
                      .count());
            });
      }
      not_full_.wait(lock,
                     [this] { return closed_ || queue_.size() < capacity_; });
      if (closed_) return false;
    }
    producer_parked_ = false;
    const bool wake = enqueue(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    if (wake) readable_waiter_();
    return true;
  }

  /// Non-blocking push: false if full (not counted as a drop) or closed.
  bool try_push(T value) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || queue_.size() >= capacity_) return false;
      wake = enqueue(std::move(value));
    }
    not_empty_.notify_one();
    if (wake) readable_waiter_();
    return true;
  }

  /// Non-blocking push that leaves `value` INTACT when the channel is
  /// full, so an event-driven producer can park and re-offer the same
  /// message after a writable wake (try_push would have consumed the
  /// moved-in value on failure). On success the value is moved from and
  /// true is returned. A closed channel returns false with the value
  /// untouched — callers distinguish full from closed via closed(). A
  /// failure on a full channel parks the producer: the next pop fires the
  /// writable waiter.
  bool try_push_from(T& value) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      if (queue_.size() >= capacity_) {
        producer_parked_ = true;
        return false;
      }
      producer_parked_ = false;
      wake = enqueue(std::move(value));
    }
    not_empty_.notify_one();
    if (wake) readable_waiter_();
    return true;
  }

  /// Dequeues the oldest value, waiting while the channel is empty but
  /// open. Returns nullopt only once the channel is closed AND drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    consumer_parked_ = false;
    T value = std::move(queue_.front());
    const bool wake = dequeue();
    lock.unlock();
    not_full_.notify_one();
    if (wake) writable_waiter_();
    return value;
  }

  /// Non-blocking pop: nullopt when nothing is ready right now, which
  /// parks the consumer (the next push fires the readable waiter).
  std::optional<T> try_pop() { return pop_now(/*park=*/true); }

  /// try_pop() for a consumer that only looks ahead: an empty channel
  /// returns nullopt WITHOUT parking the consumer, so no wake is owed.
  /// Lets a consumer that waits on several channels choose the one it
  /// sleeps on.
  std::optional<T> poll() { return pop_now(/*park=*/false); }

  /// Hands a spent value back to the producer side for reuse, so values
  /// that own buffers (the runtime's interval messages) cycle between the
  /// two endpoints instead of being freed and reallocated. At most
  /// capacity() spares are kept; a surplus value is destroyed, outside the
  /// lock. Fires no waiter.
  void recycle(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (spares_.size() >= capacity_) {
      lock.unlock();
      return;  // `value` is destroyed here
    }
    if (spares_.capacity() == 0) spares_.reserve(capacity_);
    spares_.push_back(std::move(value));
  }

  /// A value previously handed to recycle(), or nullopt when none is
  /// spare. The producer overwrites it and pushes it again.
  std::optional<T> take_spare() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spares_.empty()) return std::nullopt;
    std::optional<T> value(std::move(spares_.back()));
    spares_.pop_back();
    return value;
  }

  /// Closes the channel: pending values stay poppable, new pushes fail,
  /// and every blocked producer/consumer wakes up.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
    // Close is both a readable and a writable event: a consumer parked on
    // an empty channel must wake to observe end-of-stream, and a producer
    // parked on a full one must wake to learn its pushes now fail.
    if (readable_waiter_) readable_waiter_();
    if (writable_waiter_) writable_waiter_();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Closed AND empty: a try_pop() that returned nullopt will never yield
  /// again — the event-driven consumer's end-of-stream test. (A false
  /// return is only a hint: a racing consumer may drain the last value
  /// right after; re-check after the next failed try_pop.)
  [[nodiscard]] bool drained() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_ && queue_.empty();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] BackpressurePolicy policy() const noexcept { return policy_; }

  [[nodiscard]] std::uint64_t pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }
  [[nodiscard]] std::uint64_t popped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return popped_;
  }
  /// Values discarded by kDropNewest (always 0 under kBlock).
  [[nodiscard]] std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

 private:
  std::optional<T> pop_now(bool park) {
    std::optional<T> value;
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) {
        if (park) consumer_parked_ = true;
        return std::nullopt;
      }
      consumer_parked_ = false;
      value.emplace(std::move(queue_.front()));
      wake = dequeue();
    }
    not_full_.notify_one();
    if (wake) writable_waiter_();
    return value;
  }

  /// Appends under the lock; true when the readable waiter must fire (the
  /// consumer was parked — it is unparked here, so it fires once).
  bool enqueue(T&& value) {
    queue_.push_back(std::move(value));
    ++pushed_;
    AIOT_OBS(if (stats_.depth != nullptr) {
      stats_.depth->set(static_cast<double>(queue_.size()));
    });
    const bool wake = consumer_parked_ && readable_waiter_;
    if (wake) consumer_parked_ = false;
    return wake;
  }

  /// Drops the (moved-from) front under the lock; true when the writable
  /// waiter must fire (the producer was parked on a full channel).
  bool dequeue() {
    queue_.pop_front();
    ++popped_;
    AIOT_OBS(if (stats_.depth != nullptr) {
      stats_.depth->set(static_cast<double>(queue_.size()));
    });
    const bool wake = producer_parked_ && writable_waiter_;
    if (wake) producer_parked_ = false;
    return wake;
  }

  const std::size_t capacity_;
  const BackpressurePolicy policy_;
  ChannelStats stats_;
  ChannelWaiter readable_waiter_;
  ChannelWaiter writable_waiter_;

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  /// Spent values handed back by the consumer (recycle/take_spare).
  std::vector<T> spares_;
  bool closed_{false};
  /// Parked endpoints (see ChannelWaiter). A new channel's consumer has
  /// not seen any value yet, so it counts as parked.
  bool consumer_parked_{true};
  bool producer_parked_{false};
  std::uint64_t pushed_{0};
  std::uint64_t popped_{0};
  std::uint64_t dropped_{0};
};

}  // namespace approxiot::runtime
