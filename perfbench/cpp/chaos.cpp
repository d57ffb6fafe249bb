// chaos_midwave_att — the control-plane protocol under faults.
//
// Each op is one ctrl::ControlSimulation cell on the ATT backbone in
// transactional mode, over a lossy channel (5% loss, 2% duplication,
// 5 ms jitter, suspicion_checks = 3). The first controller of a seeded
// pair is killed at 500 ms and the second a seeded 100-600 ms later,
// inside the recovery wave. The recovery policy is PM seeded with the
// previous plan. Cells run two at a time on a util::TaskPool.
//
// The second victim is either the wave's coordinator (the lowest-id
// survivor) or a controller that adopts no switch in the first wave.
// Killing an adopter that is not the coordinator mid-wave makes the
// current protocol throw in about two thirds of such cells (repro in
// perfbench/README.md); the benchmark keeps to workloads on which no
// operation fails, so those pairs are left out. A cell that throws is
// still a failed op, never an abort of the run.
#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "sdwan/failure.hpp"
#include "util/task_pool.hpp"

namespace pmbench {

namespace {

constexpr int kJobs = 2;
// Set-up is a few milliseconds; more repetitions steady its median.
constexpr int kSetupReps = 15;
// About two hundred cells complete per second on two jobs, so a round
// of 256 cells (one slice of the window) takes a second or so.
constexpr std::size_t kRoundCells = 256;
constexpr double kFirstKillMs = 500.0;
// Long enough that every cell of the workload converges (at 5000 ms
// about one cell in a thousand has not yet).
constexpr double kUntilMs = 10000.0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct CellOutcome {
  bool ok = false;
  std::string why;
  double wall_ms = 0.0;
  double policy_ms = 0.0;
  double audit_ms = 0.0;
  double recovery_sim_ms = std::numeric_limits<double>::infinity();
  std::uint64_t messages = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t stale_discarded = 0;
};

/// Total programmability of the plans the policy produced for each
/// scheduled failure set ({first} and {first, second} of a cell): per
/// set, the mean over every plan produced for it. Event order can yield
/// a rarely different plan for the same set, which moves a mean by its
/// frequency only; plans for a set a spurious suspicion produced are
/// left out.
class PlanLedger {
 public:
  void record(const pm::sdwan::FailureState& state,
              const pm::core::RecoveryPlan& plan) {
    const auto& set = state.scenario().failed;
    const auto shape = std::make_pair(plan.mapping.size(),
                                      plan.sdn_assignments.size());
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      Entry& e = sets_[set][shape];
      ++e.count;
      if (e.evaluated) return;
    }
    const double total = static_cast<double>(
        pm::core::evaluate_plan(state, plan).total_programmability);
    const std::lock_guard<std::mutex> lock(mutex_);
    Entry& e = sets_[set][shape];
    e.value = total;
    e.evaluated = true;
  }
  double total() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const auto& [set, shapes] : sets_) {
      double weighted = 0.0, count = 0.0;
      for (const auto& [shape, e] : shapes) {
        weighted += static_cast<double>(e.count) * e.value;
        count += static_cast<double>(e.count);
      }
      sum += weighted / count;
    }
    return sum;
  }

 private:
  struct Entry {
    std::uint64_t count = 0;
    double value = 0.0;
    bool evaluated = false;
  };
  mutable std::mutex mutex_;
  std::map<std::vector<pm::sdwan::ControllerId>,
           std::map<std::pair<std::size_t, std::size_t>, Entry>>
      sets_;
};

}  // namespace

Result run_chaos(const Options& options) {
  std::unique_ptr<pm::sdwan::Network> net;
  // (first victim, second victim), ordered.
  std::vector<pm::sdwan::FailureScenario> pairs;
  std::unique_ptr<pm::util::TaskPool> pool;
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    net = std::make_unique<pm::sdwan::Network>(pm::core::make_att_network());
    pairs.clear();
    for (const auto& single : pm::sdwan::enumerate_failures(*net, 1)) {
      const pm::sdwan::ControllerId first = single.failed[0];
      const pm::sdwan::FailureState state(*net, single);
      const pm::core::RecoveryPlan plan = pm::core::run_pm(state);
      std::set<pm::sdwan::ControllerId> adopters;
      for (const auto& [sw, j] : plan.mapping) adopters.insert(j);
      const pm::sdwan::ControllerId coordinator = first == 0 ? 1 : 0;
      for (pm::sdwan::ControllerId j = 0; j < net->controller_count(); ++j) {
        if (j != first && (j == coordinator || !adopters.contains(j))) {
          pairs.push_back({{first, j}});
        }
      }
    }
    pool = std::make_unique<pm::util::TaskPool>(kJobs);
  }, [&] {
    pool.reset();
    net.reset();
  });

  pm::ctrl::ControllerConfig config;
  config.suspicion_checks = 3;
  PlanLedger ledger;
  std::atomic<std::uint64_t> next_op{0};
  std::uint64_t next_cell = 0;
  std::vector<CellOutcome> all_cells;

  auto run_cell = [&](std::uint64_t index, std::uint64_t parent) {
    CellOutcome out;
    const std::uint64_t h = splitmix64(options.seed * 0x100000001b3ULL + index);
    const auto& pair = pairs[h % pairs.size()];
    const double second_kill_ms =
        kFirstKillMs + 100.0 +
        static_cast<double>(splitmix64(h) % 500'000) / 1000.0;
    const std::vector<pm::sdwan::ControllerId> single = {pair.failed[0]};
    const std::vector<pm::sdwan::ControllerId> both = {
        std::min(pair.failed[0], pair.failed[1]),
        std::max(pair.failed[0], pair.failed[1])};
    double bookkeeping_ms = 0.0;

    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan cell("ctrl.cell", "ctrl", ++next_op, parent);
      try {
        pm::ctrl::ControlSimulation simulation(
            *net,
            [&](const pm::sdwan::FailureState& state,
                const pm::core::RecoveryPlan* previous) {
              pm::core::RecoveryPlan plan;
              const Clock::time_point p0 = Clock::now();
              {
                ScopedSpan span("core.run_pm", "core");
                pm::core::PmOptions pm_options;
                pm_options.seed = previous;
                plan = pm::core::run_pm(state, pm_options);
              }
              const Clock::time_point p1 = Clock::now();
              out.policy_ms += ms_between(p0, p1);
              const auto& failed = state.scenario().failed;
              if (failed == single || failed == both) {
                ledger.record(state, plan);
              }
              bookkeeping_ms += ms_between(p1, Clock::now());
              return plan;
            },
            config);
        pm::ctrl::ChannelFaultModel faults;
        faults.seed = splitmix64(h ^ 0x5eedULL);
        faults.drop_probability = 0.05;
        faults.duplicate_probability = 0.02;
        faults.jitter_ms = 5.0;
        simulation.set_fault_model(faults);
        simulation.fail_controller_at(pair.failed[0], kFirstKillMs);
        simulation.fail_controller_at(pair.failed[1], second_kill_ms);
        const pm::ctrl::SimulationReport report = simulation.run(kUntilMs);
        if (Tracer::instance().enabled()) {
          const Clock::time_point a0 = Clock::now();
          ScopedSpan span("ctrl.audit", "ctrl");
          (void)simulation.audit();
          out.audit_ms = ms_between(a0, Clock::now());
        }
        out.messages = report.messages_sent;
        out.retransmissions = report.retransmissions;
        out.stale_discarded = report.stale_discarded;
        if (!report.converged_at) {
          out.why = "never converged";
        } else if (!report.audit_clean) {
          out.why = "consistency audit found " +
                    std::to_string(report.audit_violations) + " violations";
        } else if (!report.all_flows_deliverable) {
          out.why = "not all flows deliverable";
        } else {
          out.ok = true;
          out.recovery_sim_ms = *report.converged_at - kFirstKillMs;
        }
      } catch (const std::exception& e) {
        out.why = std::string("exception: ") + e.what();
      }
    }
    out.wall_ms = ms_between(t0, Clock::now()) - bookkeeping_ms;
    if (!out.ok) {
      out.why = "cell " + std::to_string(index) + " (fail " +
                pair.label(*net) + ", second kill at " +
                std::to_string(second_kill_ms) + " ms): " + out.why;
    }
    return out;
  };

  auto window_fn = [&](double seconds) -> Window {
    Window w;
    const Clock::time_point start = Clock::now();
    do {
      // One round, one slice: kRoundCells cells across the pool.
      std::vector<CellOutcome> round(kRoundCells);
      const Clock::time_point round_start = Clock::now();
      {
        ScopedSpan span("util.task_pool.round", "util");
        const std::uint64_t first = next_cell;
        pool->run_indexed(kRoundCells, [&](std::size_t b) {
          round[b] = run_cell(first + b, span.id());
        });
      }
      next_cell += kRoundCells;
      w.slices.emplace_back();
      w.slices.back().seconds = seconds_since(round_start);
      for (CellOutcome& c : round) {
        ++w.attempted;
        if (c.ok) {
          w.slices.back().latencies.add(c.wall_ms);
        } else {
          w.fail(c.why);
        }
        all_cells.push_back(std::move(c));
      }
    } while (seconds_since(start) < seconds);
    w.seconds = seconds_since(start);
    return w;
  };

  Result result;
  if (!options.trace) {
    const Window w = measure(options.seconds, window_fn, result);
    fill_end_to_end(w, setup_s, ledger.total(), result);
    return result;
  }
  run_traced_pair(options.seconds, window_fn, result);
  const TraceSummary summary = summarize(Tracer::instance().snapshot());

  std::vector<double> sim_self_ms, recovery_ms;
  double messages = 0.0, retransmissions = 0.0, stale = 0.0;
  for (const CellOutcome& c : all_cells) {
    recovery_ms.push_back(c.recovery_sim_ms);
    messages += static_cast<double>(c.messages);
    retransmissions += static_cast<double>(c.retransmissions);
    stale += static_cast<double>(c.stale_discarded);
    if (c.ok && c.audit_ms > 0.0) {
      sim_self_ms.push_back(c.wall_ms - c.policy_ms - c.audit_ms);
    }
  }
  const double cells = static_cast<double>(all_cells.size());
  auto& m = result.per_layer;
  m["ctrl.sim_self_ms"] = quantile(sim_self_ms, 0.5);
  m["ctrl.policy_us"] = median_us(summary, "core.run_pm");
  m["ctrl.audit_ms"] = median_us(summary, "ctrl.audit") / 1e3;
  m["ctrl.messages_per_cell"] = messages / cells;
  m["ctrl.retransmit_ratio"] = messages > 0 ? retransmissions / messages : 0.0;
  m["ctrl.stale_discarded"] = stale / cells;
  // Nearest rank: failed cells count as +inf, which interpolation would
  // turn into NaN.
  std::sort(recovery_ms.begin(), recovery_ms.end());
  m["ctrl.recovery_sim_ms_p50"] =
      recovery_ms.empty() ? 0.0 : recovery_ms[(recovery_ms.size() - 1) / 2];
  return result;
}

}  // namespace pmbench
