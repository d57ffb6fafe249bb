// chaos_convergence — convergence predictability of the recovery
// protocol under channel faults and successive controller failures. In
// every cell C13 fails at t=500 ms and one more controller fails later,
// over a lossy, jittery channel whose seeded fault sequence is the same
// for every cell, so the table is reproducible bit-for-bit across runs
// and machines. The 27 cells cover three second kills:
//
//   after-wave   C20 at t=3000 ms, once the first wave has converged,
//                under loss {0, 2, 5, 10, 20}% x jitter {0, 5, 20} ms;
//   coordinator  the first wave's coordinator (controller 0) at t=850 ms,
//                inside the first wave, under loss {0, 2, 5}% x
//                jitter {0, 20} ms;
//   adopter      the highest-id controller the first wave hands switches
//                to, at t=850 ms, on the same grid.
//
// For each cell the harness reports detection and convergence times, the
// retransmission/duplicate-suppression work the reliable-delivery layer
// performed, spurious detector firings, the transactional failover work
// (coordinator failovers, aborted waves, stale messages discarded), the
// consistency audit and the degradation count — the paper's "predictable
// recovery" claim, extended to a lossy in-band control channel. The run
// exits 0 only if every cell keeps all flows deliverable and audits clean.
//
// Usage: ./build/bench/chaos_convergence [--seed=42] [--dup=0.02]
//        [--until=20000] [--csv=chaos.csv] [--jobs=N]
//        [--trace-out=t.json] [--metrics-out=m.prom] [--log-level=info]
//
// --jobs=N runs the sweep cells in parallel. Every cell owns its seeded
// fault stream and its own simulation, so the table and CSV outputs stay
// byte-identical at any job count.
//
// The observability flags apply to the harshest cell of the sweep
// (after-wave, highest loss + jitter) so the exported trace shows the
// reliable-delivery machinery at its busiest; the sweep table and CSV
// outputs are byte-identical with or without them.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/task_pool.hpp"

namespace {

struct Cell {
  std::string kill;  ///< after-wave, coordinator or adopter
  pm::sdwan::ControllerId victim = -1;
  double kill_at_ms = 0.0;
  double loss = 0.0;
  double jitter_ms = 0.0;
  pm::ctrl::SimulationReport report;
};

// One sweep cell: controller 3 (C13) fails at t=500 and the cell's victim
// at its kill time, with PM seeded by the previous plan as the policy.
pm::ctrl::SimulationReport run_cell(const pm::sdwan::Network& net,
                                    const Cell& cell, double dup,
                                    std::uint64_t seed, double until_ms,
                                    const pm::obs::ObsOptions* obs,
                                    bool& outputs_written) {
  pm::ctrl::ControllerConfig config;
  // Hysteresis sized for the sweep's jitter range: three consecutive
  // missed detector checks before suspecting a peer.
  config.suspicion_checks = 3;
  pm::ctrl::ControlSimulation simulation(
      net,
      [](const pm::sdwan::FailureState& state,
         const pm::core::RecoveryPlan* previous) {
        pm::core::PmOptions opts;
        opts.seed = previous;
        return pm::core::run_pm(state, opts);
      },
      config);
  pm::ctrl::ChannelFaultModel faults;
  faults.seed = seed;
  faults.drop_probability = cell.loss;
  faults.duplicate_probability = dup;
  faults.jitter_ms = cell.jitter_ms;
  simulation.set_fault_model(faults);
  if (obs != nullptr) {
    simulation.observability().tracer.set_enabled(obs->tracing_requested());
    simulation.observability().detailed_metrics = obs->detailed_requested();
  }
  simulation.fail_controller_at(3, 500.0);  // C13
  simulation.fail_controller_at(cell.victim, cell.kill_at_ms);
  const pm::ctrl::SimulationReport report = simulation.run(until_ms);
  if (obs != nullptr) {
    outputs_written = pm::obs::write_outputs(*obs, simulation.observability());
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42, 0, LLONG_MAX));
  const double dup = args.get_double("dup", 0.02, 0.0, 1.0);
  const double until = args.get_double("until", 20000.0, 0.0, util::kUnbounded);
  const std::string csv_path = args.get_string("csv", "");
  const int jobs = util::parse_jobs_flag(args);
  const obs::ObsOptions obs_options = obs::parse_obs_flags(args);

  const sdwan::Network net = core::make_att_network();
  // The coordinator after C13's failure is the lowest surviving id
  // (controller 0); the adopter is the highest-id controller the wave-1
  // plan hands switches to, so its kill lands on a node with in-flight
  // slices of its own.
  sdwan::FailureScenario first;
  first.failed = {3};
  const core::RecoveryPlan wave1 =
      core::run_pm(sdwan::FailureState(net, first), {});
  sdwan::ControllerId adopter = -1;
  for (const auto& [sw, j] : wave1.mapping) {
    if (j != 0) adopter = std::max(adopter, j);
  }

  std::vector<Cell> cells;
  const auto add = [&](const char* kill, sdwan::ControllerId victim,
                       double at_ms, const std::vector<double>& losses,
                       const std::vector<double>& jitters) {
    for (const double jitter : jitters) {
      for (const double loss : losses) {
        cells.push_back({kill, victim, at_ms, loss, jitter, {}});
      }
    }
  };
  add("after-wave", 4, 3000.0, {0.0, 0.02, 0.05, 0.10, 0.20},  // C20
      {0.0, 5.0, 20.0});
  // The observability sinks ride on the harshest cell, the after-wave
  // one at 20% loss and 20 ms jitter.
  const std::size_t harshest = cells.size() - 1;
  add("coordinator", 0, 850.0, {0.0, 0.02, 0.05}, {0.0, 20.0});
  add("adopter", adopter, 850.0, {0.0, 0.02, 0.05}, {0.0, 20.0});

  // Each cell is a self-contained simulation with its own seeded fault
  // stream, so cells fan out across the pool; parallel_map returns them
  // in sweep order, keeping the table and CSV byte-identical.
  util::TaskPool pool(jobs);
  bool outputs_written = true;  // Only the harshest cell writes it.
  cells = pool.parallel_map(cells, [&](std::size_t i, Cell c) -> Cell {
    c.report = run_cell(net, c, dup, seed, until,
                        i == harshest ? &obs_options : nullptr,
                        outputs_written);
    return c;
  });

  std::cout << "=== Chaos sweep: C13 fails at t=500 ms, a second "
               "controller later, under loss x jitter (seed "
            << seed << ") ===\n\n";
  util::TextTable t({"kill", "victim", "kill_ms", "loss", "jitter_ms",
                     "detected_ms", "converged_ms", "retx", "dups_supp",
                     "spurious", "failovers", "aborted", "stale_disc",
                     "audit_viol", "degraded", "deliverable"});
  bool all_ok = true;
  for (const auto& c : cells) {
    t.add_row({c.kill, net.controller(c.victim).name,
               util::format_double(c.kill_at_ms, 0),
               util::format_double(100.0 * c.loss, 0) + "%",
               util::format_double(c.jitter_ms, 0),
               util::format_double(c.report.detected_at.value_or(-1.0), 1),
               util::format_double(c.report.converged_at.value_or(-1.0), 1),
               std::to_string(c.report.retransmissions),
               std::to_string(c.report.duplicates_suppressed),
               std::to_string(c.report.spurious_detections),
               std::to_string(c.report.coordinator_failovers),
               std::to_string(c.report.waves_aborted),
               std::to_string(c.report.stale_discarded),
               std::to_string(c.report.audit_violations),
               std::to_string(c.report.degraded_flows),
               c.report.all_flows_deliverable ? "yes" : "NO"});
    all_ok &= c.report.all_flows_deliverable && c.report.audit_clean;
  }
  t.print(std::cout);
  std::cout << "\n"
            << (all_ok ? "every cell kept all flows deliverable with a "
                         "clean consistency audit"
                       : "WARNING: some cells broke delivery or "
                         "consistency")
            << "\n";

  const auto write_csv = [&](std::ostream& out) {
    util::CsvWriter csv(out);
    csv.write_row({"kill", "victim", "kill_ms", "loss", "jitter_ms",
                   "detected_ms", "converged_ms", "messages_sent",
                   "injected_drops", "injected_duplicates",
                   "retransmissions", "duplicates_suppressed",
                   "spurious_detections", "degraded_flows",
                   "degraded_switches", "coordinator_failovers",
                   "waves_aborted", "stale_discarded", "audit_violations",
                   "all_flows_deliverable"});
    for (const auto& c : cells) {
      csv.write_row(
          {c.kill, net.controller(c.victim).name,
           util::format_double(c.kill_at_ms, 0),
           util::format_double(c.loss, 2),
           util::format_double(c.jitter_ms, 1),
           util::format_double(c.report.detected_at.value_or(-1.0), 3),
           util::format_double(c.report.converged_at.value_or(-1.0), 3),
           std::to_string(c.report.messages_sent),
           std::to_string(c.report.injected_drops),
           std::to_string(c.report.injected_duplicates),
           std::to_string(c.report.retransmissions),
           std::to_string(c.report.duplicates_suppressed),
           std::to_string(c.report.spurious_detections),
           std::to_string(c.report.degraded_flows),
           std::to_string(c.report.degraded_switches),
           std::to_string(c.report.coordinator_failovers),
           std::to_string(c.report.waves_aborted),
           std::to_string(c.report.stale_discarded),
           std::to_string(c.report.audit_violations),
           c.report.all_flows_deliverable ? "true" : "false"});
    }
  };
  if (!csv_path.empty() && !obs::write_file(csv_path, write_csv, "csv")) {
    return 1;
  }
  return all_ok && outputs_written ? 0 : 1;
}
