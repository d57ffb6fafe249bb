// perf_gate — tracked microbenchmark baseline for the recovery pipeline.
//
// Times the hot paths this repo optimizes — PM / RetroFlow / PG planning,
// path-diversity extraction (Network construction over the cached BFS
// layer), one chaos-convergence cell — plus the parallel fig5 sweep at a
// ladder of --jobs values, and emits a machine-readable JSON report
// (BENCH_pr4.json in CI) so regressions show up as artifact diffs.
//
// Two built-in correctness gates back the numbers:
//  * the dense-state run_pm is re-run against a frozen copy of the
//    original map-based implementation and the plans must be identical;
//  * the parallel sweep at every job count must equal the serial sweep.
//
// Usage: ./build/bench/perf_gate [--quick] [--json-out=BENCH_pr4.json]
//        [--jobs-list=1,2,4,8] [--until=6000]
//
// Wall-clock output is inherently machine-dependent; `hardware_threads`
// is recorded so a 1-core container's flat parallel ladder reads as what
// it is, not as a regression.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/pm_algorithm.hpp"
#include "core/pg.hpp"
#include "core/retroflow.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "graph/diversity_cache.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/task_pool.hpp"

namespace {

using namespace pm;
using sdwan::ControllerId;
using sdwan::FlowId;
using sdwan::SwitchId;

/// Frozen copy of the pre-dense-rework run_pm (map-based working state,
/// linear seed adoption). Kept verbatim minus profiling so the gate can
/// assert the reworked planner is a pure optimization, and report the
/// speedup the dense state buys.
core::RecoveryPlan run_pm_reference(const sdwan::FailureState& state,
                                    core::PmOptions options = {}) {
  core::RecoveryPlan plan;
  plan.algorithm = "PM";
  // Y as the original node-based set; copied into the plan's sorted
  // vector at the end.
  std::set<core::Assignment> assignments;

  std::map<SwitchId, std::vector<std::pair<FlowId, std::int64_t>>> by_switch;
  for (SwitchId s : state.offline_switches()) by_switch[s] = {};
  for (FlowId l : state.recoverable_flows()) {
    for (const auto& opp : state.opportunities(l)) {
      by_switch[opp.sw].emplace_back(l, opp.p);
    }
  }

  std::map<ControllerId, double> rest;
  for (ControllerId j : state.active_controllers()) {
    rest[j] = state.rest_capacity(j);
  }
  std::map<FlowId, std::int64_t> h;
  for (FlowId l : state.recoverable_flows()) h[l] = 0;

  const int total_iterations =
      options.total_iterations > 0 ? options.total_iterations
                                   : state.max_offline_switches_on_path();

  if (options.seed != nullptr) {
    for (const auto& [sw, ctrl] : options.seed->mapping) {
      if (state.is_offline_switch(sw) && state.is_active_controller(ctrl)) {
        plan.mapping[sw] = ctrl;
      }
    }
    for (const auto& [sw, flow] : options.seed->sdn_assignments) {
      const ControllerId j = plan.controller_of(sw);
      if (j < 0 || !h.contains(flow)) continue;
      const auto& flows = by_switch.at(sw);
      const auto it =
          std::find_if(flows.begin(), flows.end(),
                       [&](const auto& fl) { return fl.first == flow; });
      if (it == flows.end() || rest.at(j) < 1.0) continue;
      rest.at(j) -= 1.0;
      h.at(flow) += it->second;
      assignments.insert({sw, flow});
    }
  }

  std::vector<SwitchId> untested = state.offline_switches();
  std::int64_t sigma = 0;
  int test_count = 0;

  auto restart_sweep = [&] {
    untested = state.offline_switches();
    ++test_count;
    std::int64_t min_h = std::numeric_limits<std::int64_t>::max();
    for (const auto& [l, hl] : h) min_h = std::min(min_h, hl);
    if (!h.empty()) sigma = min_h;
  };

  while (test_count < total_iterations && !h.empty()) {
    std::size_t delta = 0;
    SwitchId i0 = -1;
    for (SwitchId s : untested) {
      std::size_t count = 0;
      for (const auto& [l, p] : by_switch.at(s)) {
        (void)p;
        if (h.at(l) == sigma) ++count;
      }
      if (count > delta) {
        delta = count;
        i0 = s;
        if (!options.greedy_switch_selection) break;
      }
    }
    if (i0 < 0) {
      restart_sweep();
      continue;
    }

    ControllerId j0 = plan.controller_of(i0);
    if (j0 < 0) {
      for (ControllerId j : state.controllers_by_delay(i0)) {
        if (rest.at(j) >= static_cast<double>(state.gamma(i0))) {
          j0 = j;
          break;
        }
      }
      if (j0 < 0) {
        double best = -1.0;
        for (ControllerId j : state.active_controllers()) {
          if (rest.at(j) > best) {
            best = rest.at(j);
            j0 = j;
          }
        }
      }
      plan.mapping[i0] = j0;
    }
    std::erase(untested, i0);

    for (const auto& [l0, p] : by_switch.at(i0)) {
      if (h.at(l0) <= sigma && !assignments.contains({i0, l0}) &&
          rest.at(j0) >= 1.0) {
        rest.at(j0) -= 1.0;
        h.at(l0) += p;
        assignments.insert({i0, l0});
      }
    }
    if (untested.empty()) restart_sweep();
  }

  if (!options.skip_utilization_pass) {
    for (const auto& [i0, flows] : by_switch) {
      const ControllerId j0 = plan.controller_of(i0);
      if (j0 < 0) continue;
      for (const auto& [l0, p] : flows) {
        (void)p;
        if (rest.at(j0) >= 1.0 &&
            !assignments.contains({i0, l0})) {
          rest.at(j0) -= 1.0;
          assignments.insert({i0, l0});
        }
      }
    }
  }

  plan.sdn_assignments.assign(assignments.begin(), assignments.end());
  core::prune_unused_mappings(plan);
  return plan;
}

bool same_plan(const core::RecoveryPlan& a, const core::RecoveryPlan& b) {
  return a.mapping == b.mapping && a.sdn_assignments == b.sdn_assignments;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct OpTiming {
  std::string name;
  int reps = 0;
  double ns_per_op = 0.0;
};

/// Times `reps` calls of fn (which must return something convertible to
/// size_t, accumulated into a sink so the work cannot be elided).
template <typename Fn>
OpTiming time_op(const std::string& name, int reps, Fn&& fn) {
  static volatile std::size_t sink = 0;
  std::size_t acc = 0;
  const double t0 = now_seconds();
  for (int r = 0; r < reps; ++r) acc += static_cast<std::size_t>(fn());
  const double t1 = now_seconds();
  sink = sink + acc;
  return {name, reps, 1e9 * (t1 - t0) / std::max(1, reps)};
}

ctrl::SimulationReport run_chaos_cell(const sdwan::Network& net,
                                      double until_ms) {
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
  faults.drop_probability = 0.10;
  faults.duplicate_probability = 0.02;
  faults.jitter_ms = 5.0;
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(3, 500.0);
  simulation.fail_controller_at(4, 3000.0);
  return simulation.run(until_ms);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const std::string json_out = args.get_string("json-out", "");
  const std::string jobs_list = args.get_string("jobs-list", "1,2,4,8");
  const double until = args.get_double("until", quick ? 2000.0 : 6000.0);
  obs::apply_log_level_flag(args);
  for (const auto& unused : args.unused()) {
    obs::log().warn("unrecognized flag --" + unused);
  }

  const int planner_reps = quick ? 20 : 200;
  const int extract_reps = quick ? 3 : 10;

  std::cout << "=== perf_gate: recovery-pipeline microbenchmarks ===\n";
  std::cout << "hardware threads: " << util::TaskPool::hardware_jobs()
            << (quick ? " (quick mode)" : "") << "\n\n";

  const sdwan::Network net = core::make_att_network();
  // The paper's headline two-failure case (13, 20): hub switch 13
  // stranded, the densest instance of the fig5 sweep.
  sdwan::FailureScenario scenario;
  scenario.failed = {3, 4};
  const sdwan::FailureState state(net, scenario);

  // Correctness gate 1: dense run_pm == frozen map-based run_pm, both
  // from scratch and in incremental (seeded) mode.
  {
    const core::RecoveryPlan dense = core::run_pm(state);
    const core::RecoveryPlan reference = run_pm_reference(state);
    if (!same_plan(dense, reference)) {
      std::cerr << "FAIL: dense run_pm diverged from the map-based "
                   "reference\n";
      return 1;
    }
    sdwan::FailureScenario first;
    first.failed = {3};
    const sdwan::FailureState wave1_state(net, first);
    const core::RecoveryPlan wave1 = core::run_pm(wave1_state);
    core::PmOptions seeded;
    seeded.seed = &wave1;
    if (!same_plan(core::run_pm(state, seeded),
                   run_pm_reference(state, seeded))) {
      std::cerr << "FAIL: seeded dense run_pm diverged from the "
                   "reference\n";
      return 1;
    }
    std::cout << "plan-equivalence gate: dense == reference (fresh + "
                 "seeded)\n\n";
  }

  std::vector<OpTiming> ops;
  ops.push_back(time_op("pm_plan_dense", planner_reps, [&] {
    return core::run_pm(state).sdn_assignments.size();
  }));
  ops.push_back(time_op("pm_plan_map_reference", planner_reps, [&] {
    return run_pm_reference(state).sdn_assignments.size();
  }));
  ops.push_back(time_op("retroflow_plan", planner_reps, [&] {
    return core::run_retroflow(state).sdn_assignments.size();
  }));
  ops.push_back(time_op("pg_plan", planner_reps, [&] {
    return core::run_pg(state).sdn_assignments.size();
  }));
  ops.push_back(time_op("att_network_construct", extract_reps, [&] {
    return static_cast<std::size_t>(
        core::make_att_network().flow_count());
  }));
  ops.push_back(time_op("path_diversity_all_pairs", extract_reps, [&] {
    // The extraction hot path in isolation: every (switch, dst) pair
    // through one epoch-guarded cache, as Network construction does.
    graph::DiversityCache cache(net.config().path_count);
    std::int64_t total = 0;
    const auto& g = net.topology().graph();
    for (int dst = 0; dst < g.node_count(); ++dst) {
      for (int src = 0; src < g.node_count(); ++src) {
        if (src != dst) total += cache.diversity(g, src, dst);
      }
    }
    return static_cast<std::size_t>(total);
  }));
  ops.push_back(time_op("chaos_cell", 1, [&] {
    return static_cast<std::size_t>(
        run_chaos_cell(net, until).messages_sent);
  }));

  util::TextTable t({"op", "reps", "ns/op", "ms/op"});
  for (const auto& op : ops) {
    t.add_row({op.name, std::to_string(op.reps),
               util::format_double(op.ns_per_op, 0),
               util::format_double(op.ns_per_op / 1e6, 3)});
  }
  t.print(std::cout);

  const double dense_speedup =
      ops[0].ns_per_op > 0.0 ? ops[1].ns_per_op / ops[0].ns_per_op : 0.0;
  std::cout << "\nrun_pm dense-state speedup vs map reference: "
            << util::format_double(dense_speedup, 2) << "x\n";

  // Parallel ladder: the fig5 sweep (15 two-failure cases, planners
  // only) at each --jobs value, gated against the serial results.
  std::cout << "\n--- fig5 sweep (k=2, no optimal) parallel ladder ---\n";
  core::RunnerOptions sweep_options;
  sweep_options.run_optimal = false;
  const auto serial = core::run_failure_sweep(net, 2, sweep_options);

  struct LadderPoint {
    int jobs = 0;
    double seconds = 0.0;
    double speedup = 0.0;
  };
  std::vector<LadderPoint> ladder;
  double serial_seconds = 0.0;
  util::TextTable lt({"jobs", "seconds", "speedup"});
  for (const std::string& tok : util::split(jobs_list, ',')) {
    long long jobs = 0;
    if (!util::parse_int(tok, jobs) || jobs < 1) continue;
    sweep_options.jobs = static_cast<int>(jobs);
    const int sweep_reps = quick ? 1 : 3;
    double best = std::numeric_limits<double>::max();
    std::vector<core::CaseResult> results;
    for (int r = 0; r < sweep_reps; ++r) {
      const double t0 = now_seconds();
      results = core::run_failure_sweep(net, 2, sweep_options);
      best = std::min(best, now_seconds() - t0);
    }
    // Correctness gate 2: byte-identical metrics vs the serial sweep.
    if (results.size() != serial.size()) {
      std::cerr << "FAIL: parallel sweep size mismatch at jobs=" << jobs
                << "\n";
      return 1;
    }
    for (std::size_t c = 0; c < results.size(); ++c) {
      if (results[c].label != serial[c].label) {
        std::cerr << "FAIL: parallel sweep order diverged at jobs="
                  << jobs << "\n";
        return 1;
      }
      for (const auto& [algo, m] : serial[c].metrics) {
        const auto it = results[c].metrics.find(algo);
        if (it == results[c].metrics.end() ||
            it->second.total_programmability != m.total_programmability ||
            it->second.least_programmability != m.least_programmability) {
          std::cerr << "FAIL: parallel sweep metrics diverged at jobs="
                    << jobs << " case " << serial[c].label << "\n";
          return 1;
        }
      }
    }
    if (jobs == 1) serial_seconds = best;
    LadderPoint p;
    p.jobs = static_cast<int>(jobs);
    p.seconds = best;
    p.speedup = best > 0.0 && serial_seconds > 0.0
                    ? serial_seconds / best
                    : 0.0;
    ladder.push_back(p);
    lt.add_row({std::to_string(jobs), util::format_double(best, 4),
                util::format_double(p.speedup, 2) + "x"});
  }
  lt.print(std::cout);
  std::cout << "parallel-equivalence gate: every job count matched the "
               "serial sweep\n";

  if (!json_out.empty()) {
    util::JsonValue doc = util::JsonValue::object();
    doc["benchmark"] = std::string("pr4_perf_gate");
    doc["deterministic"] = false;
    doc["quick"] = quick;
    doc["hardware_threads"] =
        static_cast<std::int64_t>(util::TaskPool::hardware_jobs());
    util::JsonValue op_rows = util::JsonValue::array();
    for (const auto& op : ops) {
      util::JsonValue row = util::JsonValue::object();
      row["name"] = op.name;
      row["reps"] = static_cast<std::int64_t>(op.reps);
      row["ns_per_op"] = op.ns_per_op;
      op_rows.push_back(std::move(row));
    }
    doc["ops"] = std::move(op_rows);
    doc["pm_dense_speedup_vs_map"] = dense_speedup;
    util::JsonValue parallel = util::JsonValue::object();
    parallel["sweep"] = std::string("fig5_k2_no_optimal");
    util::JsonValue points = util::JsonValue::array();
    for (const auto& p : ladder) {
      util::JsonValue row = util::JsonValue::object();
      row["jobs"] = static_cast<std::int64_t>(p.jobs);
      row["seconds"] = p.seconds;
      row["speedup_vs_serial"] = p.speedup;
      points.push_back(std::move(row));
    }
    parallel["ladder"] = std::move(points);
    doc["parallel"] = std::move(parallel);
    std::ofstream out(json_out);
    out << doc.to_string(2) << "\n";
    std::cout << "[json written to " << json_out << "]\n";
  }
  return 0;
}
