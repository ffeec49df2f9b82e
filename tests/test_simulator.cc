#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace rtq::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
}

TEST(Simulator, RunUntilAdvancesClockToHorizon) {
  Simulator sim;
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(Simulator, EventsAdvanceClock) {
  Simulator sim;
  SimTime seen = -1.0;
  sim.ScheduleAfter(3.5, [&] { seen = sim.Now(); });
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(seen, 3.5);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(Simulator, EventsBeyondHorizonDoNotFire) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAfter(20.0, [&] { fired = true; });
  sim.RunUntil(10.0);
  EXPECT_FALSE(fired);
  // A later run picks it up.
  sim.RunUntil(30.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventAtExactHorizonFires) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(10.0, [&] { fired = true; });
  sim.RunUntil(10.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.Now());
    if (times.size() < 5) sim.ScheduleAfter(1.0, chain);
  };
  sim.ScheduleAfter(1.0, chain);
  sim.RunToCompletion();
  ASSERT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.back(), 5.0);
}

TEST(Simulator, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.ScheduleAfter(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(Simulator, StepDispatchesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAfter(1.0, [&] { ++count; });
  sim.ScheduleAfter(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, DispatchCountAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.ScheduleAfter(i, [] {});
  sim.RunToCompletion();
  EXPECT_EQ(sim.events_dispatched(), 7u);
}

TEST(Simulator, RepeatedBoundedRunsCompose) {
  Simulator sim;
  std::vector<double> times;
  for (int i = 1; i <= 9; ++i) {
    sim.ScheduleAt(static_cast<double>(i), [&times, &sim] {
      times.push_back(sim.Now());
    });
  }
  sim.RunUntil(3.0);
  EXPECT_EQ(times.size(), 3u);
  sim.RunUntil(6.0);
  EXPECT_EQ(times.size(), 6u);
  sim.RunUntil(100.0);
  EXPECT_EQ(times.size(), 9u);
}

TEST(Simulator, PendingEventsReported) {
  Simulator sim;
  sim.ScheduleAfter(1.0, [] {});
  sim.ScheduleAfter(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunToCompletion();
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace rtq::sim
