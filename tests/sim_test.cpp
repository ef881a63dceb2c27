#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/periodic.h"
#include "sim/simulator.h"

namespace sperke::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), kTimeZero);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(seconds(2.0), [&] { order.push_back(2); });
  s.schedule_at(seconds(1.0), [&] { order.push_back(1); });
  s.schedule_at(seconds(3.0), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), seconds(3.0));
}

TEST(Simulator, SameTimeEventsFifoByScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(seconds(1.0), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  Time fired = kTimeZero;
  s.schedule_at(seconds(1.0), [&] {
    s.schedule_after(seconds(0.5), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, seconds(1.5));
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator s;
  s.schedule_at(seconds(5.0), [&] {
    s.schedule_at(seconds(1.0), [&] { EXPECT_EQ(s.now(), seconds(5.0)); });
  });
  s.run();
  EXPECT_EQ(s.now(), seconds(5.0));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int count = 0;
  s.schedule_at(seconds(1.0), [&] { ++count; });
  s.schedule_at(seconds(10.0), [&] { ++count; });
  s.run_until(seconds(5.0));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), seconds(5.0));
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWithNoEvents) {
  Simulator s;
  s.run_until(seconds(7.0));
  EXPECT_EQ(s.now(), seconds(7.0));
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) s.schedule_after(seconds(1.0), chain);
  };
  s.schedule_after(seconds(1.0), chain);
  s.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.now(), seconds(10.0));
}

TEST(Simulator, ClearDropsPending) {
  Simulator s;
  bool fired = false;
  s.schedule_at(seconds(1.0), [&] { fired = true; });
  s.clear();
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 3; ++i) s.schedule_at(seconds(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(TimeHelpers, SecondsRoundTrips) {
  EXPECT_EQ(seconds(1.5).count(), 1'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.25)), 2.25);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(7)), 7.0);
}

TEST(PeriodicTask, FiresAtPeriod) {
  Simulator s;
  std::vector<Time> fires;
  PeriodicTask task(s, seconds(1.0), [&] { fires.push_back(s.now()); });
  s.run_until(seconds(3.5));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], seconds(1.0));
  EXPECT_EQ(fires[2], seconds(3.0));
  task.stop();
}

TEST(PeriodicTask, StopHaltsFiring) {
  Simulator s;
  int count = 0;
  PeriodicTask task(s, seconds(1.0), [&] { ++count; });
  s.schedule_at(seconds(2.5), [&] { task.stop(); });
  s.run_until(seconds(10.0));
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, DestructionCancelsSafely) {
  Simulator s;
  int count = 0;
  {
    PeriodicTask task(s, seconds(1.0), [&] { ++count; });
    s.run_until(seconds(1.5));
  }
  s.run_until(seconds(10.0));
  EXPECT_EQ(count, 1);
}

TEST(PeriodicTask, ExplicitStartTime) {
  Simulator s;
  std::vector<Time> fires;
  PeriodicTask task(s, seconds(0.0), seconds(2.0), [&] { fires.push_back(s.now()); });
  s.run_until(seconds(5.0));
  ASSERT_EQ(fires.size(), 3u);  // t = 0, 2, 4
  EXPECT_EQ(fires[0], kTimeZero);
  task.stop();
}

TEST(PeriodicTask, StopsWhereTheNextTickWouldPassTheClock) {
  // The first tick fires at two thirds of the clock's range; the second
  // would pass Time::max(), so the task ends instead of re-arming.
  Simulator s;
  int count = 0;
  std::optional<PeriodicTask> task;
  task.emplace(s, Time::max() / 3 * 2, [&] {
    if (++count > 3) task->stop();  // bounds a wrapped clock's re-firing
  });
  s.run();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(task->running());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(PeriodicTask, RejectsNonPositivePeriod) {
  Simulator s;
  EXPECT_THROW(PeriodicTask(s, seconds(0.0), [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace sperke::sim
