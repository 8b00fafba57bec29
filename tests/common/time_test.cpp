#include "common/time.hpp"

#include <gtest/gtest.h>

namespace approxiot {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(SimTime::from_seconds(1.5).us, 1'500'000);
  EXPECT_EQ(SimTime::from_millis(20).us, 20'000);
  EXPECT_EQ(SimTime::from_micros(7).us, 7);
  EXPECT_DOUBLE_EQ(SimTime::from_seconds(2.0).seconds(), 2.0);
  EXPECT_DOUBLE_EQ(SimTime::from_millis(40).millis(), 40.0);
}

TEST(SimTimeTest, ArithmeticAndComparison) {
  const SimTime a = SimTime::from_millis(10);
  const SimTime b = SimTime::from_millis(30);
  EXPECT_EQ((a + b).us, 40'000);
  EXPECT_EQ((b - a).us, 20'000);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(a >= a);
  EXPECT_TRUE(a == SimTime::from_millis(10));
  EXPECT_TRUE(a != b);
}

TEST(IntervalClockTest, MapsTimesToIntervals) {
  IntervalClock clock(SimTime::from_seconds(1.0));
  EXPECT_EQ(clock.interval_of(SimTime::from_millis(0)).seq, 0);
  EXPECT_EQ(clock.interval_of(SimTime::from_millis(999)).seq, 0);
  EXPECT_EQ(clock.interval_of(SimTime::from_millis(1000)).seq, 1);
  EXPECT_EQ(clock.interval_of(SimTime::from_seconds(5.5)).seq, 5);
}

TEST(FloorDivTest, RoundsTowardsNegativeInfinity) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(6, 2), 3);
  EXPECT_EQ(floor_div(0, 5), 0);
  EXPECT_EQ(floor_div(-1, 5), -1);
  EXPECT_EQ(floor_div(-5, 5), -1);
  EXPECT_EQ(floor_div(-6, 5), -2);
}

// Regression (FlowQueueSource buckets records with this clock): truncating
// division folded timestamps in (-length, 0) into interval 0.
TEST(IntervalClockTest, NegativeTimesMapToNegativeIntervals) {
  IntervalClock clock(SimTime::from_seconds(1.0));
  EXPECT_EQ(clock.interval_of(SimTime::from_millis(-1)).seq, -1);
  EXPECT_EQ(clock.interval_of(SimTime::from_millis(-1000)).seq, -1);
  EXPECT_EQ(clock.interval_of(SimTime::from_millis(-1001)).seq, -2);
  // start/end round-trip still holds below zero.
  const IntervalSeq i{-3};
  EXPECT_EQ(clock.interval_of(clock.start_of(i)).seq, -3);
  EXPECT_EQ(clock.interval_of(clock.end_of(i)).seq, -2);
}

TEST(IntervalClockTest, StartEndBoundaries) {
  IntervalClock clock(SimTime::from_millis(500));
  const IntervalSeq i{3};
  EXPECT_EQ(clock.start_of(i).us, 1'500'000);
  EXPECT_EQ(clock.end_of(i).us, 2'000'000);
  // Start is inclusive, end exclusive.
  EXPECT_EQ(clock.interval_of(clock.start_of(i)).seq, 3);
  EXPECT_EQ(clock.interval_of(clock.end_of(i)).seq, 4);
}

TEST(IntervalClockTest, GuardsAgainstNonPositiveLength) {
  IntervalClock clock(SimTime::zero());
  // Falls back to a 1-second interval instead of dividing by zero.
  EXPECT_EQ(clock.interval_length().us, 1'000'000);
}

}  // namespace
}  // namespace approxiot
