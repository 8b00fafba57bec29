// BoundedChannel: FIFO order, capacity blocking, close semantics, the
// drop-with-count policy, the parked-endpoint wake contract, spare-value
// recycling, and a multi-producer stress run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "runtime/bounded_channel.hpp"

namespace approxiot::runtime {
namespace {

TEST(BoundedChannelTest, FifoOrder) {
  BoundedChannel<int> channel(4);
  EXPECT_TRUE(channel.push(1));
  EXPECT_TRUE(channel.push(2));
  EXPECT_TRUE(channel.push(3));
  EXPECT_EQ(channel.size(), 3u);
  EXPECT_EQ(channel.pop().value(), 1);
  EXPECT_EQ(channel.pop().value(), 2);
  EXPECT_EQ(channel.pop().value(), 3);
  EXPECT_EQ(channel.try_pop(), std::nullopt);
}

TEST(BoundedChannelTest, TryPushFailsWhenFullWithoutCountingDrops) {
  BoundedChannel<int> channel(2);
  EXPECT_TRUE(channel.try_push(1));
  EXPECT_TRUE(channel.try_push(2));
  EXPECT_FALSE(channel.try_push(3));
  EXPECT_EQ(channel.dropped(), 0u);
}

TEST(BoundedChannelTest, DropNewestCountsSheddedValues) {
  BoundedChannel<int> channel(2, BackpressurePolicy::kDropNewest);
  EXPECT_TRUE(channel.push(1));
  EXPECT_TRUE(channel.push(2));
  EXPECT_FALSE(channel.push(3));  // shed
  EXPECT_FALSE(channel.push(4));  // shed
  EXPECT_EQ(channel.dropped(), 2u);
  EXPECT_EQ(channel.pop().value(), 1);
  EXPECT_TRUE(channel.push(5));  // space again
  EXPECT_EQ(channel.dropped(), 2u);
}

TEST(BoundedChannelTest, BlockingPushWaitsForSpace) {
  BoundedChannel<int> channel(1);
  ASSERT_TRUE(channel.push(1));

  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    channel.push(2);  // blocks until the consumer pops
    second_pushed.store(true);
  });

  // The producer must not complete while the channel is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());

  EXPECT_EQ(channel.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(channel.pop().value(), 2);
}

TEST(BoundedChannelTest, CloseDrainsPendingThenSignalsEnd) {
  BoundedChannel<int> channel(4);
  channel.push(7);
  channel.push(8);
  channel.close();
  EXPECT_FALSE(channel.push(9));  // rejected after close
  EXPECT_EQ(channel.pop().value(), 7);
  EXPECT_EQ(channel.pop().value(), 8);
  EXPECT_EQ(channel.pop(), std::nullopt);  // closed and drained
}

TEST(BoundedChannelTest, CloseWakesBlockedConsumer) {
  BoundedChannel<int> channel(1);
  std::thread consumer([&] { EXPECT_EQ(channel.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.close();
  consumer.join();
}

TEST(BoundedChannelTest, TryPushFromLeavesValueIntactOnFailure) {
  BoundedChannel<std::vector<int>> channel(1);
  std::vector<int> payload{1, 2, 3};
  EXPECT_TRUE(channel.try_push_from(payload));  // moved from on success

  std::vector<int> parked{4, 5, 6};
  EXPECT_FALSE(channel.try_push_from(parked));  // full
  EXPECT_EQ(parked, (std::vector<int>{4, 5, 6}));  // value survives

  channel.pop();
  EXPECT_TRUE(channel.try_push_from(parked));  // re-offer succeeds
  EXPECT_EQ(channel.pop().value(), (std::vector<int>{4, 5, 6}));

  channel.close();
  std::vector<int> rejected{7};
  EXPECT_FALSE(channel.try_push_from(rejected));
  EXPECT_EQ(rejected, (std::vector<int>{7}));  // intact on close too
  EXPECT_TRUE(channel.closed());  // how callers tell closed from full
}

TEST(BoundedChannelTest, DrainedRequiresClosedAndEmpty) {
  BoundedChannel<int> channel(2);
  EXPECT_FALSE(channel.drained());  // open, empty
  channel.push(1);
  channel.close();
  EXPECT_FALSE(channel.drained());  // closed, value still poppable
  EXPECT_EQ(channel.try_pop().value(), 1);
  EXPECT_TRUE(channel.drained());
}

// The wake contract (bounded_channel.hpp): a waiter fires once per event
// while the other endpoint is parked, never otherwise, and always on close.
TEST(BoundedChannelTest, ReadableWaiterFiresOnlyForAParkedConsumer) {
  BoundedChannel<int> channel(4);
  int readable_events = 0;
  channel.set_readable_waiter([&] { ++readable_events; });

  channel.push(1);  // a new channel's consumer counts as parked
  EXPECT_EQ(readable_events, 1);
  channel.try_push(2);  // the consumer was woken and has not parked since
  int value = 3;
  channel.try_push_from(value);
  EXPECT_EQ(readable_events, 1);

  EXPECT_EQ(channel.try_pop().value(), 1);  // pops raise no readable event
  EXPECT_EQ(channel.pop().value(), 2);
  EXPECT_EQ(channel.try_pop().value(), 3);
  EXPECT_EQ(readable_events, 1);

  // A fruitless try_pop parks the consumer: the next push wakes it, once.
  EXPECT_EQ(channel.try_pop(), std::nullopt);
  EXPECT_EQ(channel.try_pop(), std::nullopt);  // still one park
  channel.push(4);
  EXPECT_EQ(readable_events, 2);
  channel.push(5);
  EXPECT_EQ(readable_events, 2);

  // Close always fires, parked or not; a repeated close raises nothing.
  channel.close();
  EXPECT_EQ(readable_events, 3);
  channel.close();
  EXPECT_EQ(readable_events, 3);
}

TEST(BoundedChannelTest, WritableWaiterFiresOnlyForAParkedProducer) {
  BoundedChannel<int> channel(2);
  int writable_events = 0;
  channel.set_writable_waiter([&] { ++writable_events; });

  channel.push(1);
  channel.push(2);
  EXPECT_EQ(channel.try_pop().value(), 1);  // the producer never parked
  EXPECT_EQ(channel.pop().value(), 2);
  EXPECT_EQ(channel.try_pop(), std::nullopt);
  EXPECT_EQ(writable_events, 0);

  // A try_push_from on a full channel parks the producer: the next pop
  // wakes it, once.
  int value = 3;
  ASSERT_TRUE(channel.try_push_from(value));
  value = 4;
  ASSERT_TRUE(channel.try_push_from(value));
  value = 5;
  EXPECT_FALSE(channel.try_push_from(value));
  EXPECT_EQ(writable_events, 0);
  EXPECT_EQ(channel.try_pop().value(), 3);
  EXPECT_EQ(writable_events, 1);
  EXPECT_EQ(channel.pop().value(), 4);
  EXPECT_EQ(writable_events, 1);

  // A push that succeeds unparks the producer: no wake is owed.
  value = 6;
  ASSERT_TRUE(channel.try_push_from(value));
  value = 7;
  ASSERT_TRUE(channel.try_push_from(value));
  value = 8;
  EXPECT_FALSE(channel.try_push_from(value));  // parked again
  value = 9;
  EXPECT_FALSE(channel.try_push_from(value));  // still one park
  EXPECT_EQ(channel.try_pop().value(), 6);
  EXPECT_EQ(writable_events, 2);

  channel.close();  // close wakes the producer side too, parked or not
  EXPECT_EQ(writable_events, 3);
}

TEST(BoundedChannelTest, NewChannelFirstPushWakesItsConsumer) {
  // Every push flavour: the consumer of a fresh channel has never looked,
  // so it must be woken — otherwise an event-driven consumer sleeps
  // through the first value forever.
  for (int flavour = 0; flavour < 3; ++flavour) {
    BoundedChannel<int> channel(2);
    int readable_events = 0;
    channel.set_readable_waiter([&] { ++readable_events; });
    int value = 1;
    if (flavour == 0) channel.push(value);
    if (flavour == 1) channel.try_push(value);
    if (flavour == 2) channel.try_push_from(value);
    EXPECT_EQ(readable_events, 1) << "flavour " << flavour;
  }
}

TEST(BoundedChannelTest, PopsOnAChannelThatNeverFillsRaiseNoWritableEvent) {
  BoundedChannel<int> channel(4, BackpressurePolicy::kBlock);
  int writable_events = 0;
  channel.set_writable_waiter([&] { ++writable_events; });
  for (int i = 0; i < 100; ++i) {
    int value = i;
    ASSERT_TRUE(channel.try_push_from(value));
    ASSERT_TRUE(channel.push(i));
    EXPECT_EQ(channel.try_pop().value(), i);
    EXPECT_EQ(channel.pop().value(), i);
    EXPECT_EQ(channel.try_pop(), std::nullopt);
  }
  EXPECT_EQ(writable_events, 0);
}

TEST(BoundedChannelTest, FullTryPushFromIsWokenByTheNextPop) {
  // The event-driven producer's park/retry loop, run across threads: a
  // producer whose try_push_from finds the channel full parks, and the
  // consumer's next pop must wake it or the value is never delivered.
  BoundedChannel<int> channel(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool woken = false;
  channel.set_writable_waiter([&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      woken = true;
    }
    cv.notify_one();
  });

  ASSERT_TRUE(channel.push(1));
  int value = 2;
  ASSERT_FALSE(channel.try_push_from(value));  // full: parked
  EXPECT_EQ(value, 2);                         // left intact for the retry

  std::thread consumer([&] { EXPECT_EQ(channel.pop().value(), 1); });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return woken; }));
  }
  consumer.join();
  EXPECT_TRUE(channel.try_push_from(value));
  EXPECT_EQ(channel.pop().value(), 2);
}

TEST(BoundedChannelTest, RecycledValuesAreKeptUpToCapacity) {
  BoundedChannel<std::vector<int>> channel(2);
  int events = 0;
  channel.set_readable_waiter([&] { ++events; });
  channel.set_writable_waiter([&] { ++events; });
  EXPECT_EQ(channel.take_spare(), std::nullopt);

  std::vector<int> buffer;
  buffer.reserve(64);
  const int* storage = buffer.data();
  channel.recycle(std::move(buffer));
  channel.recycle(std::vector<int>{1});
  channel.recycle(std::vector<int>{2});  // beyond capacity: destroyed
  EXPECT_EQ(events, 0);                  // recycling is no readiness event
  EXPECT_EQ(channel.size(), 0u);         // and never poppable

  EXPECT_EQ(channel.take_spare().value(), std::vector<int>{1});
  std::optional<std::vector<int>> spare = channel.take_spare();
  ASSERT_TRUE(spare.has_value());
  EXPECT_EQ(spare->data(), storage);  // the same buffer came back
  EXPECT_EQ(channel.take_spare(), std::nullopt);
}

TEST(BoundedChannelTest, DroppedPushRaisesNoReadableEvent) {
  BoundedChannel<int> channel(1, BackpressurePolicy::kDropNewest);
  int readable_events = 0;
  channel.set_readable_waiter([&] { ++readable_events; });

  channel.push(1);
  EXPECT_EQ(readable_events, 1);
  EXPECT_FALSE(channel.push(2));  // shed — nothing became poppable
  EXPECT_EQ(readable_events, 1);
  EXPECT_EQ(channel.dropped(), 1u);

  // A failed try_push (full, not counted as drop) is equally silent.
  EXPECT_FALSE(channel.try_push(3));
  int value = 4;
  EXPECT_FALSE(channel.try_push_from(value));
  EXPECT_EQ(readable_events, 1);
}

TEST(BoundedChannelTest, WaiterEventsAreHintsNotProofs) {
  // The spurious-wake contract: a waiter invocation does NOT guarantee the
  // next try_pop succeeds — a racing consumer may have drained the value
  // first. Consumers must re-check and treat a fruitless wake as spurious.
  BoundedChannel<int> channel(4);
  std::atomic<int> readable_events{0};
  std::atomic<int> successful_pops{0};
  channel.set_readable_waiter([&] {
    readable_events.fetch_add(1);
    // Re-check from scratch, exactly like an event-driven task body; a
    // nullopt here is the spurious case and must be harmless.
    if (channel.try_pop().has_value()) successful_pops.fetch_add(1);
  });

  constexpr int kValues = 200;
  std::thread racing_consumer([&] {
    while (!channel.drained()) {
      if (channel.try_pop().has_value()) successful_pops.fetch_add(1);
    }
  });
  for (int i = 0; i < kValues; ++i) channel.push(i);
  channel.close();
  racing_consumer.join();

  // Every value was consumed exactly once, no matter how the waiter's
  // pops raced the consumer's; wakes beyond the successful pops were
  // spurious and changed nothing.
  EXPECT_EQ(successful_pops.load(), kValues);
  EXPECT_EQ(channel.popped(), static_cast<std::uint64_t>(kValues));
  // Wakes fire only while the consumer is parked: at most one per push,
  // plus the close, which always fires.
  EXPECT_GE(readable_events.load(), 1);
  EXPECT_LE(readable_events.load(), kValues + 1);
}

TEST(BoundedChannelTest, MultiProducerStressDeliversEveryValue) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  BoundedChannel<int> channel(8);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(channel.push(p * kPerProducer + i));
      }
    });
  }

  std::set<int> received;
  std::thread consumer([&] {
    while (auto v = channel.pop()) received.insert(*v);
  });

  for (auto& t : producers) t.join();
  channel.close();
  consumer.join();

  EXPECT_EQ(received.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  EXPECT_EQ(channel.pushed(), static_cast<std::uint64_t>(kProducers *
                                                         kPerProducer));
  EXPECT_EQ(channel.popped(), channel.pushed());
  EXPECT_EQ(channel.dropped(), 0u);
}

// Race: close() vs close() vs a consumer parked in pop(). The closed_
// check under the lock makes exactly ONE closer the one that fires the
// readiness waiters — a double-fire would make an event-driven consumer
// process end-of-stream twice, and a lost wake would strand it forever.
TEST(BoundedChannelTest, RacingClosesFireWaitersExactlyOnceNoLostWake) {
  constexpr int kRounds = 200;
  constexpr int kClosers = 4;
  for (int round = 0; round < kRounds; ++round) {
    BoundedChannel<int> channel(2);
    std::atomic<int> readable_fired{0};
    std::atomic<int> writable_fired{0};
    channel.set_readable_waiter([&] { ++readable_fired; });
    channel.set_writable_waiter([&] { ++writable_fired; });

    // Consumer parks on the empty channel BEFORE any close: the wake it
    // gets can only come from close's notify — the lost-wake surface.
    std::atomic<bool> consumer_done{false};
    std::thread consumer([&] {
      EXPECT_EQ(channel.pop(), std::nullopt);
      consumer_done = true;
    });

    std::vector<std::thread> closers;
    for (int c = 0; c < kClosers; ++c) {
      closers.emplace_back([&] { channel.close(); });
    }
    for (auto& t : closers) t.join();
    consumer.join();

    EXPECT_TRUE(consumer_done);
    EXPECT_EQ(readable_fired.load(), 1);
    EXPECT_EQ(writable_fired.load(), 1);
    EXPECT_TRUE(channel.closed());
  }
}

// The closed-loser side of the race: a producer blocked on a full channel
// must wake and fail its push when close() lands, never stay parked.
TEST(BoundedChannelTest, CloseWakesBlockedProducer) {
  BoundedChannel<int> channel(1);
  ASSERT_TRUE(channel.push(1));  // fills the channel

  std::atomic<bool> push_returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(channel.push(2));  // blocks until close, then fails
    push_returned = true;
  });

  // Give the producer time to actually park on not_full_.
  while (channel.size() != 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.close();
  producer.join();
  EXPECT_TRUE(push_returned);

  // The pre-close value stays poppable after close (drain semantics).
  EXPECT_EQ(channel.pop().value(), 1);
  EXPECT_EQ(channel.pop(), std::nullopt);
}

}  // namespace
}  // namespace approxiot::runtime
