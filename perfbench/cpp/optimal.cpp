// optimal_att_k1 — the MILP engine.
//
// Each op is core::run_optimal with default options on one of the six
// single-failure ATT cases. kWorkers threads run side by side, each
// solving the six cases serially in its own seeded order, pass after
// pass. All six prove optimality at the root, so the work per op is
// fixed; the k = 2 cases are left out because they run into the time
// limit and their work varies from run to run.
//
// The solver allocates and frees its working arrays on every solve. By
// default glibc hands freed heap back to the kernel and faults it in
// again on a later solve; on the virtualized reference host, whose
// balloon device reports freed guest pages to the host, the cost of those
// faults swings with the host's load and made whole runs 10-25% slower
// or faster. The workload keeps freed memory in the process instead, as
// a long-running solver does once warm.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/fmssm.hpp"
#include "core/metrics.hpp"
#include "core/optimal.hpp"
#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "milp/presolve.hpp"
#include "milp/simplex.hpp"
#include "sdwan/failure.hpp"

namespace pmbench {

namespace {

// Set-up is about a millisecond; more repetitions steady its median.
constexpr int kSetupReps = 15;
// Solver threads; one vCPU of a four-vCPU host stays free for the rest.
// Three times the ops of one thread per run, and a steady peak RSS (with
// one thread it read 24.6 or 28.6 MiB from run to run).
constexpr int kWorkers = 3;
// Freed memory stays in the process below these sizes (see above).
constexpr int kMmapThresholdBytes = 256 << 20;
constexpr int kTrimThresholdBytes = 1 << 30;

/// What one worker saw in one window.
struct WorkerLog {
  Window window;
  std::vector<double> nodes_explored;  ///< Traced windows only.
  std::vector<double> programmability;  ///< Per case; -1 until solved.
};

}  // namespace

Result run_optimal(const Options& options) {
  if (mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes) != 1 ||
      mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes) != 1) {
    throw std::runtime_error("mallopt refused the heap thresholds");
  }
  std::unique_ptr<pm::sdwan::Network> net;
  std::vector<std::unique_ptr<pm::sdwan::FailureState>> states;
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    net = std::make_unique<pm::sdwan::Network>(pm::core::make_att_network());
    for (auto& scenario : pm::sdwan::enumerate_failures(*net, 1)) {
      states.push_back(std::make_unique<pm::sdwan::FailureState>(
          *net, std::move(scenario)));
    }
  }, [&] {
    states.clear();
    net.reset();
  });

  // Check data, outside the timed window: each case's FMSSM model and
  // the objective PM's plan reaches in it (when the plan is feasible).
  std::vector<pm::core::FmssmProblem> problems;
  std::vector<double> pm_objective;
  for (const auto& state : states) {
    problems.push_back(pm::core::build_fmssm(*state));
    const auto encoded =
        problems.back().encode(*state, pm::core::run_pm(*state));
    pm_objective.push_back(
        problems.back().model.is_feasible(encoded)
            ? problems.back().model.objective_value(encoded)
            : -std::numeric_limits<double>::infinity());
  }
  std::vector<double> programmability(states.size(), -1.0);
  std::vector<double> nodes_explored;

  // One generator per worker, kept across windows.
  std::vector<std::mt19937_64> rngs;
  for (int i = 0; i < kWorkers; ++i) {
    rngs.emplace_back(options.seed * kWorkers + static_cast<std::uint64_t>(i));
  }
  std::atomic<std::uint64_t> next_op{0};

  // Passes until `seconds` after `start`; one pass, one slice.
  auto run_passes = [&](int worker, double seconds, Clock::time_point start,
                        WorkerLog& log) {
    const bool traced = Tracer::instance().enabled();
    Window& w = log.window;
    log.programmability.assign(states.size(), -1.0);
    std::vector<std::size_t> order(states.size());
    do {
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::shuffle(order.begin(), order.end(), rngs[worker]);
      w.slices.emplace_back();
      const Clock::time_point pass_start = Clock::now();
      for (const std::size_t c : order) {
        ++w.attempted;
        pm::core::OptimalOutcome outcome;
        const Clock::time_point t0 = Clock::now();
        {
          ScopedSpan op("optimal.op", "bench", ++next_op);
          ScopedSpan span("core.run_optimal", "core");
          outcome = pm::core::run_optimal(*states[c]);
        }
        const double latency = ms_between(t0, Clock::now());
        if (traced) {
          log.nodes_explored.push_back(
              static_cast<double>(outcome.nodes_explored));
        }
        const std::string label = states[c]->scenario().label(*net);
        if (outcome.status != pm::milp::MipStatus::kOptimal || !outcome.plan) {
          w.fail(label + ": status " + pm::milp::to_string(outcome.status));
          continue;
        }
        const auto encoded = problems[c].encode(*states[c], *outcome.plan);
        const double objective = problems[c].model.objective_value(encoded);
        const double slack = 1e-6 * std::max(1.0, std::abs(pm_objective[c]));
        if (!problems[c].model.is_feasible(encoded) ||
            objective < pm_objective[c] - slack) {
          w.fail(label + ": plan infeasible or objective " +
                 std::to_string(objective) + " below PM's " +
                 std::to_string(pm_objective[c]));
          continue;
        }
        if (log.programmability[c] < 0.0) {
          log.programmability[c] = static_cast<double>(
              pm::core::evaluate_plan(*states[c], *outcome.plan)
                  .total_programmability);
        }
        w.slices.back().latencies.add(latency);
      }
      w.slices.back().seconds = seconds_since(pass_start);
    } while (seconds_since(start) < seconds);
  };

  auto window_fn = [&](double seconds) -> Window {
    std::vector<WorkerLog> logs(kWorkers);
    const Clock::time_point start = Clock::now();
    {
      std::vector<std::thread> threads;
      for (int i = 0; i < kWorkers; ++i) {
        threads.emplace_back([&, i] { run_passes(i, seconds, start, logs[i]); });
      }
      for (std::thread& t : threads) t.join();
    }
    Window w;
    w.workers = kWorkers;
    w.seconds = seconds_since(start);
    for (WorkerLog& log : logs) {
      w.attempted += log.window.attempted;
      w.failed += log.window.failed;
      for (Slice& s : log.window.slices) w.slices.push_back(std::move(s));
      for (std::string& f : log.window.failures) {
        if (w.failures.size() < 8) w.failures.push_back(std::move(f));
      }
      nodes_explored.insert(nodes_explored.end(), log.nodes_explored.begin(),
                            log.nodes_explored.end());
      for (std::size_t c = 0; c < states.size(); ++c) {
        programmability[c] =
            std::max(programmability[c], log.programmability[c]);
      }
    }
    return w;
  };

  Result result;
  if (!options.trace) {
    const Window w = measure(options.seconds, window_fn, result);
    double total = 0.0;
    for (const double p : programmability) total += std::max(0.0, p);
    fill_end_to_end(w, setup_s, total, result);
    return result;
  }

  run_traced_pair(options.seconds, window_fn, result);
  // Outside the windows: the stages run_optimal goes through, called one
  // by one on each case (model build, presolve, root LP relaxation).
  Tracer::instance().set_enabled(true);
  std::vector<double> lp_iterations;
  for (const auto& state : states) {
    pm::core::FmssmProblem problem;
    {
      ScopedSpan span("core.fmssm_build", "core");
      problem = pm::core::build_fmssm(*state);
    }
    pm::milp::PresolveResult reduced;
    {
      ScopedSpan span("milp.presolve", "milp");
      reduced = pm::milp::presolve(problem.model);
    }
    ScopedSpan span("milp.root_lp", "milp");
    lp_iterations.push_back(
        static_cast<double>(pm::milp::solve_lp(reduced.reduced).iterations));
  }
  Tracer::instance().set_enabled(false);
  const TraceSummary summary = summarize(Tracer::instance().snapshot());
  auto& m = result.per_layer;
  m["core.fmssm_build_ms"] = mean_us(summary, "core.fmssm_build") / 1e3;
  m["milp.presolve_ms"] = mean_us(summary, "milp.presolve") / 1e3;
  m["milp.root_lp_ms"] = mean_us(summary, "milp.root_lp") / 1e3;
  m["milp.root_lp_iterations"] = mean(lp_iterations);
  m["milp.nodes_explored"] = mean(nodes_explored);
  return result;
}

}  // namespace pmbench
