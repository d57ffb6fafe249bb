#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <tuple>
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

TEST(EventQueue, MoveOnlyCapturesRun) {
  EventQueue q;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  q.schedule_at(1.0, [value = std::move(value), &seen] { seen = *value; });
  Task task = [owned = std::make_unique<int>(7), &seen] { seen += *owned; };
  q.schedule_at(2.0, std::move(task));
  EXPECT_FALSE(static_cast<bool>(task));  // moved into the queue
  q.run();
  EXPECT_EQ(seen, 49);
}

TEST(EventQueue, CapturesLargerThanTheInlineBufferRun) {
  struct Big {
    std::array<char, 4 * Task::kInlineBytes> bytes{};
  };
  static_assert(!Task::stores_inline<Big>());
  EventQueue q;
  Big big;
  big.bytes.back() = 'x';
  char seen = 0;
  q.schedule_at(1.0, [big, &seen] { seen = big.bytes.back(); });
  q.run();
  EXPECT_EQ(seen, 'x');
}

TEST(EventQueue, NeverRunClosuresAreDestroyed) {
  // Every closure holds a reference to `token`; its use count tracks how
  // many are still alive (and ASan flags any boxed one leaked).
  const auto token = std::make_shared<int>(0);
  const std::array<char, 2 * Task::kInlineBytes> big{};
  {
    EventQueue q;
    q.schedule_at(1.0, [token] {});
    q.schedule_at(2.0, [token, big] {});
    q.schedule_at(3.0, [token] {});
    q.schedule_at(4.0, [token, big] {});
    EXPECT_EQ(token.use_count(), 5);
    EXPECT_EQ(q.run(1.5), 1u);
    EXPECT_EQ(token.use_count(), 4);  // freed after running
  }
  EXPECT_EQ(token.use_count(), 1);  // the queue freed the never-run ones
}

TEST(EventQueue, MatchesReferenceModelOverRandomOps) {
  // 10k random schedule / run steps against a plain (at, seq) model:
  // same firing order, same clock, same counters.
  struct Ref {
    TimeMs at;
    std::uint64_t seq;
    bool popped = false;
  };
  std::mt19937_64 rng(2024);
  EventQueue q;
  std::vector<Ref> model;
  std::vector<std::uint64_t> fired, expected_fired;
  std::uint64_t seq = 0, executed = 0;
  TimeMs now = 0.0;
  for (int step = 0; step < 10000; ++step) {
    if (rng() % 10 < 6) {
      // Some times fall in the past and clamp to now.
      const TimeMs at = static_cast<double>(rng() % 2000) / 4.0;
      const std::uint64_t label = seq++;
      q.schedule_at(at, [&fired, label] { fired.push_back(label); });
      model.push_back({std::max(at, now), label});
    } else {
      const TimeMs until = now + static_cast<double>(rng() % 400) / 4.0;
      std::vector<Ref*> due;
      for (Ref& r : model) {
        if (!r.popped && r.at <= until) due.push_back(&r);
      }
      std::sort(due.begin(), due.end(), [](const Ref* a, const Ref* b) {
        return std::tie(a->at, a->seq) < std::tie(b->at, b->seq);
      });
      for (Ref* r : due) {
        r->popped = true;
        now = r->at;
        expected_fired.push_back(r->seq);
      }
      executed += due.size();
      EXPECT_EQ(q.run(until), due.size()) << "step " << step;
    }
    ASSERT_EQ(fired, expected_fired) << "step " << step;
    ASSERT_DOUBLE_EQ(q.now(), now) << "step " << step;
    ASSERT_EQ(q.pending(),
              static_cast<std::size_t>(std::count_if(
                  model.begin(), model.end(),
                  [](const Ref& r) { return !r.popped; })));
  }
  EXPECT_EQ(q.executed_total(), executed);
}

}  // namespace
}  // namespace pm::sim
