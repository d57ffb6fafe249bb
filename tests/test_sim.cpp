#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"

namespace pm::sim {
namespace {

// ---------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(9.0, [&] { order.push_back(3); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

TEST(EventQueue, StableAtEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RelativeSchedulingAndCascade) {
  EventQueue q;
  std::vector<double> times;
  q.schedule_in(2.0, [&] {
    times.push_back(q.now());
    q.schedule_in(3.0, [&] { times.push_back(q.now()); });
  });
  q.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 2.0);
  EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(EventQueue, CancelledEventNeverFires) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(1); });
  const EventId doomed = q.schedule_at(2.0, [&] { order.push_back(2); });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(doomed));
  EXPECT_FALSE(q.cancel(doomed));  // already cancelled
  EXPECT_EQ(q.run(), 2u);          // cancelled entry is not counted
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelUnknownIdIsRejected) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(12345));  // never issued
}

TEST(EventQueue, CancelFromInsideAnEarlierEvent) {
  EventQueue q;
  int fired = 0;
  const EventId later = q.schedule_at(5.0, [&] { ++fired; });
  q.schedule_at(1.0, [&] { q.cancel(later); });
  q.run();
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);  // the cancelled tail never advances time
}

TEST(EventQueue, RunUntilStopsEarly) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(10.0, [&] { ++fired; });
  EXPECT_EQ(q.run(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue q;
  double seen = -1.0;
  q.schedule_at(5.0, [&] {
    q.schedule_at(1.0, [&] { seen = q.now(); });  // in the past
  });
  q.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

}  // namespace
}  // namespace pm::sim
