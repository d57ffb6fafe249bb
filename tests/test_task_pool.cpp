// util::TaskPool — the deterministic parallel scenario engine: ordering,
// exception propagation, nested and concurrent calls, and the
// parallel-equals-serial golden contract on the real sweep drivers (one
// figure sweep, one chaos cell grid).
#include <atomic>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pm_algorithm.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "util/cli.hpp"
#include "util/task_pool.hpp"

namespace pm::util {
namespace {

TEST(TaskPool, ResultsComeBackInSubmissionOrder) {
  TaskPool pool(4);
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[static_cast<std::size_t>(i)] = i;
  const auto out = pool.parallel_map(items, [](std::size_t idx, int item) {
    EXPECT_EQ(static_cast<int>(idx), item);
    return item * item;
  });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(TaskPool, JobsOneRunsInlineOnTheCallingThread) {
  TaskPool pool(1);
  EXPECT_EQ(pool.jobs(), 1);
  const auto main_id = std::this_thread::get_id();
  std::vector<int> items(16, 0);
  const auto ids =
      pool.parallel_map(items, [&](std::size_t, int) {
        return std::this_thread::get_id();
      });
  for (const auto& id : ids) EXPECT_EQ(id, main_id);
}

TEST(TaskPool, JobsBelowOneClampToOne) {
  TaskPool pool(-3);
  EXPECT_EQ(pool.jobs(), 1);
  std::vector<int> items = {1, 2, 3};
  const auto out =
      pool.parallel_map(items, [](std::size_t, int v) { return v + 1; });
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
}

TEST(TaskPool, EmptyInputIsANoOp) {
  TaskPool pool(4);
  const std::vector<int> none;
  const auto out =
      pool.parallel_map(none, [](std::size_t, int v) { return v; });
  EXPECT_TRUE(out.empty());
  pool.run_indexed(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(TaskPool, LowestIndexExceptionWinsAndEveryIndexRuns) {
  for (int jobs : {1, 4}) {
    TaskPool pool(jobs);
    std::atomic<int> attempted{0};
    try {
      pool.run_indexed(32, [&](std::size_t i) {
        attempted.fetch_add(1);
        if (i == 7 || i == 3 || i == 21) {
          throw std::runtime_error("idx " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "idx 3") << "jobs=" << jobs;
    }
    EXPECT_EQ(attempted.load(), 32) << "jobs=" << jobs;
  }
}

TEST(TaskPool, ManyTasksOnFewThreads) {
  TaskPool pool(3);
  std::vector<int> items(1000);
  for (int i = 0; i < 1000; ++i) items[static_cast<std::size_t>(i)] = i;
  std::atomic<long long> sum{0};
  pool.run_indexed(items.size(),
                   [&](std::size_t i) { sum.fetch_add(items[i]); });
  EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
}

TEST(TaskPool, NestedSubmissionRunsInlineInsteadOfDeadlocking) {
  TaskPool pool(2);  // fewer slots than the nested fan-out would need
  std::vector<int> outer = {0, 1, 2, 3};
  const auto out = pool.parallel_map(outer, [&](std::size_t, int o) {
    std::vector<int> inner(8, o);
    // Same pool from inside a task: the nested call starts its own
    // helpers, so it never waits for a slot of the outer call.
    const auto partial = pool.parallel_map(
        inner, [](std::size_t idx, int v) {
          return v * 10 + static_cast<int>(idx);
        });
    int total = 0;
    for (int v : partial) total += v;
    return total;
  });
  // sum over idx 0..7 of (o*10 + idx) = 80*o + 28.
  EXPECT_EQ(out, (std::vector<int>{28, 108, 188, 268}));
}

TEST(TaskPool, ConcurrentCallersEachGetTheirOwnResults) {
  const TaskPool pool(4);
  std::vector<int> items(500);
  for (int i = 0; i < 500; ++i) items[static_cast<std::size_t>(i)] = i;
  std::vector<int> out_a;
  std::vector<int> out_b;
  std::thread a([&] {
    out_a = pool.parallel_map(items, [](std::size_t, int v) { return v; });
  });
  std::thread b([&] {
    out_b = pool.parallel_map(items, [](std::size_t, int v) { return -v; });
  });
  a.join();
  b.join();
  ASSERT_EQ(out_a.size(), items.size());
  ASSERT_EQ(out_b.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(out_a[i], items[i]);
    EXPECT_EQ(out_b[i], -items[i]);
  }
}

TEST(TaskPool, FewItemsUseAtMostOneThreadEach) {
  const TaskPool pool(8);
  const std::vector<int> items = {0, 1};
  const auto ids = pool.parallel_map(
      items, [](std::size_t, int) { return std::this_thread::get_id(); });
  const std::set<std::thread::id> distinct(ids.begin(), ids.end());
  EXPECT_LE(distinct.size(), 2u);
}

TEST(TaskPool, ParseJobsFlag) {
  {
    const char* argv[] = {"bench", "--jobs=4"};
    CliArgs args(2, argv);
    EXPECT_EQ(parse_jobs_flag(args), 4);
  }
  {
    const char* argv[] = {"bench"};
    CliArgs args(1, argv);
    EXPECT_EQ(parse_jobs_flag(args), 1);  // default stays serial
  }
  // Outside "auto" and [1, 1024] the flag is refused before any pool
  // exists, instead of clamping to a job count nobody asked for.
  for (const char* bad : {"--jobs=0", "--jobs=banana", "--jobs=1025"}) {
    const char* argv[] = {"bench", bad};
    CliArgs args(2, argv);
    EXPECT_EXIT(parse_jobs_flag(args), ::testing::ExitedWithCode(2),
                "is not an integer in \\[1, 1024\\]")
        << bad;
  }
  {
    const char* argv[] = {"bench", "--jobs=auto"};
    CliArgs args(2, argv);
    EXPECT_GE(parse_jobs_flag(args), 1);
  }
}

// --- Golden parallel-equals-serial tests on the real drivers ---------

void expect_same_metrics(const core::CaseResult& a,
                         const core::CaseResult& b) {
  EXPECT_EQ(a.label, b.label);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [algo, m] : a.metrics) {
    const auto it = b.metrics.find(algo);
    ASSERT_NE(it, b.metrics.end()) << a.label << "/" << algo;
    const auto& n = it->second;
    // Everything except solve_seconds (wall clock) must match exactly.
    EXPECT_EQ(m.least_programmability, n.least_programmability);
    EXPECT_EQ(m.total_programmability, n.total_programmability);
    EXPECT_EQ(m.recovered_flow_fraction, n.recovered_flow_fraction);
    EXPECT_EQ(m.recovered_switch_count, n.recovered_switch_count);
    EXPECT_EQ(m.offline_switch_count, n.offline_switch_count);
    EXPECT_EQ(m.used_control_resource, n.used_control_resource);
    EXPECT_EQ(m.available_control_resource, n.available_control_resource);
    EXPECT_EQ(m.per_flow_overhead_ms, n.per_flow_overhead_ms);
  }
  EXPECT_EQ(a.violations, b.violations);
}

TEST(TaskPoolGolden, FigureSweepIsIdenticalAtEveryJobCount) {
  const sdwan::Network net = core::make_att_network();

  // The Fig. 4 sweep with Optimal (its pivot budget makes it
  // deterministic, and k = 1 proves every case at the root) and the
  // Fig. 5 sweep without it, at several pool sizes, each against its
  // serial sweep.
  for (int k = 1; k <= 2; ++k) {
    core::RunnerOptions serial_opts;
    serial_opts.run_optimal = k == 1;
    serial_opts.jobs = 1;
    const auto serial = core::run_failure_sweep(net, k, serial_opts);
    for (const int jobs : {2, 4, 8}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " jobs=" + std::to_string(jobs));
      core::RunnerOptions parallel_opts = serial_opts;
      parallel_opts.jobs = jobs;
      const auto parallel = core::run_failure_sweep(net, k, parallel_opts);
      ASSERT_EQ(serial.size(), parallel.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        expect_same_metrics(serial[i], parallel[i]);
        EXPECT_EQ(serial[i].optimal_available, parallel[i].optimal_available);
        EXPECT_EQ(serial[i].optimal_proven, parallel[i].optimal_proven);
      }
    }
  }
}

ctrl::SimulationReport chaos_cell(const sdwan::Network& net, double loss,
                                  double jitter_ms) {
  ctrl::ControllerConfig config;
  config.suspicion_checks = 3;
  ctrl::ControlSimulation simulation(
      net,
      [](const sdwan::FailureState& state,
         const core::RecoveryPlan* previous) {
        core::PmOptions opts;
        opts.seed = previous;
        return core::run_pm(state, opts);
      },
      config);
  ctrl::ChannelFaultModel faults;
  faults.seed = 42;
  faults.drop_probability = loss;
  faults.duplicate_probability = 0.02;
  faults.jitter_ms = jitter_ms;
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(3, 500.0);
  return simulation.run(2500.0);
}

TEST(TaskPoolGolden, ChaosCellsAreIdenticalAtJobsFour) {
  const sdwan::Network net = core::make_att_network();
  const std::vector<std::pair<double, double>> cells = {
      {0.0, 0.0}, {0.05, 5.0}, {0.10, 20.0}, {0.20, 20.0}};

  auto sweep = [&](int jobs) {
    TaskPool pool(jobs);
    return pool.parallel_map(
        cells, [&](std::size_t, const std::pair<double, double>& c) {
          return chaos_cell(net, c.first, c.second);
        });
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial[i];
    const auto& b = parallel[i];
    EXPECT_EQ(a.detected_at, b.detected_at) << "cell " << i;
    EXPECT_EQ(a.converged_at, b.converged_at) << "cell " << i;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "cell " << i;
    EXPECT_EQ(a.retransmissions, b.retransmissions) << "cell " << i;
    EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed)
        << "cell " << i;
    EXPECT_EQ(a.spurious_detections, b.spurious_detections) << "cell " << i;
    EXPECT_EQ(a.degraded_flows, b.degraded_flows) << "cell " << i;
    EXPECT_EQ(a.all_flows_deliverable, b.all_flows_deliverable)
        << "cell " << i;
  }
}

}  // namespace
}  // namespace pm::util
