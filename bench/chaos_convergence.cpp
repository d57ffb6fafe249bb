// chaos_convergence — convergence predictability of the recovery
// protocol under channel faults: a loss-rate (0–20%) × delay-jitter
// sweep over a fixed two-controller-failure scenario, every cell run
// with the same seeded fault sequence so the table is reproducible
// bit-for-bit across runs and machines.
//
// For each (loss, jitter) cell the harness reports detection and
// convergence times, the retransmission/duplicate-suppression work the
// reliable-delivery layer performed, spurious detector firings, and the
// degradation count — the paper's "predictable recovery" claim, extended
// to a lossy in-band control channel.
//
// Usage: ./build/bench/chaos_convergence [--seed=42] [--dup=0.02]
//        [--until=20000] [--csv=chaos.csv] [--json] [--jobs=N]
//        [--mid-recovery] [--mid-csv=mid.csv]
//        [--trace-out=t.json] [--metrics-out=m.prom] [--log-level=info]
//
// --jobs=N runs the sweep cells in parallel. Every cell owns its seeded
// fault stream and its own simulation, so the table/CSV/JSON outputs stay
// byte-identical at any job count.
//
// The observability flags apply to the harshest cell of the sweep
// (highest loss + jitter) so the exported trace shows the
// reliable-delivery machinery at its busiest; the sweep table, CSV and
// JSON outputs are byte-identical with or without them.
//
// --mid-recovery appends a second sweep that kills a SECOND controller
// 350 ms after the first failure — inside the recovery window — once
// targeting the coordinator and once a wave-1 adopter, which exercises
// the failover/replan/rollback machinery of the transactional protocol.
// The default table/CSV/JSON above are unchanged by the flag.
#include <iostream>
#include <vector>

#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/shutdown.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/task_pool.hpp"

#include <fstream>
#include <optional>
#include <string>

namespace {

struct Cell {
  double loss = 0.0;
  double jitter_ms = 0.0;
  pm::ctrl::SimulationReport report;
  /// False when the cell was skipped by a shutdown request; skipped
  /// cells are dropped from every output (partial flush, never zeros).
  bool computed = true;
};

// One sweep cell: controller 3 (C13) fails at t=500 and `second` at
// `second_at_ms`, with PM seeded by the previous plan as the policy.
pm::ctrl::SimulationReport run_cell(const pm::sdwan::Network& net,
                                    double loss, double jitter_ms,
                                    double dup, std::uint64_t seed,
                                    double until_ms,
                                    pm::sdwan::ControllerId second,
                                    double second_at_ms,
                                    const pm::obs::ObsOptions* obs) {
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
  faults.drop_probability = loss;
  faults.duplicate_probability = dup;
  faults.jitter_ms = jitter_ms;
  simulation.set_fault_model(faults);
  if (obs != nullptr) {
    simulation.observability().tracer.set_enabled(obs->tracing_requested());
    simulation.observability().detailed_metrics = obs->detailed_requested();
  }
  simulation.fail_controller_at(3, 500.0);  // C13
  simulation.fail_controller_at(second, second_at_ms);
  const pm::ctrl::SimulationReport report = simulation.run(until_ms);
  if (obs != nullptr) {
    pm::obs::write_outputs(*obs, simulation.observability());
  }
  return report;
}

struct KillCell {
  double loss = 0.0;
  double jitter_ms = 0.0;
  std::string kill;
  pm::ctrl::SimulationReport report;
  bool computed = true;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  const double dup = args.get_double("dup", 0.02);
  const double until = args.get_double("until", 20000.0);
  std::optional<std::string> csv_path;
  if (args.has("csv")) csv_path = args.get_string("csv", "");
  const bool as_json = args.get_bool("json", false);
  const bool mid_recovery = args.get_bool("mid-recovery", false);
  std::optional<std::string> mid_csv_path;
  if (args.has("mid-csv")) mid_csv_path = args.get_string("mid-csv", "");
  const int jobs = util::parse_jobs_flag(args);
  const obs::ObsOptions obs_options = obs::parse_obs_flags(args);
  for (const auto& unused : args.unused()) {
    obs::log().warn("unrecognized flag --" + unused);
  }
  // SIGINT/SIGTERM skip the remaining cells and flush what finished —
  // a long sweep interrupted at cell 12 still leaves a usable partial
  // table/CSV instead of nothing.
  util::install_shutdown_handler();

  const std::vector<double> losses = {0.0, 0.02, 0.05, 0.10, 0.20};
  const std::vector<double> jitters = {0.0, 5.0, 20.0};

  const sdwan::Network net = core::make_att_network();
  std::vector<Cell> cells;
  for (const double jitter : jitters) {
    for (const double loss : losses) {
      cells.push_back({loss, jitter, {}});
    }
  }
  // Each cell is a self-contained simulation with its own seeded fault
  // stream, so cells fan out across the pool; parallel_map returns them
  // in sweep order, keeping every downstream table/CSV byte-identical.
  util::TaskPool pool(jobs);
  cells = pool.parallel_map(cells, [&](std::size_t, const Cell& c) -> Cell {
    if (util::shutdown_requested()) return {c.loss, c.jitter_ms, {}, false};
    // The observability sinks ride on the last (harshest) cell.
    const bool last =
        c.jitter_ms == jitters.back() && c.loss == losses.back();
    return {c.loss, c.jitter_ms,
            run_cell(net, c.loss, c.jitter_ms, dup, seed, until,
                     4, 3000.0,  // C20
                     last ? &obs_options : nullptr)};
  });
  const std::size_t total_cells = cells.size();
  std::erase_if(cells, [](const Cell& c) { return !c.computed; });
  const bool interrupted = util::shutdown_requested();
  if (interrupted) {
    std::cout << "[interrupted: flushing " << cells.size() << " of "
              << total_cells << " cells]\n";
  }

  std::cout << "=== Chaos sweep: convergence under loss x jitter "
               "(two controller failures, seed "
            << seed << ") ===\n\n";
  util::TextTable t({"loss", "jitter_ms", "detected_ms", "converged_ms",
                     "retx", "dups_supp", "spurious", "degraded",
                     "deliverable"});
  for (const auto& c : cells) {
    t.add_row({util::format_double(100.0 * c.loss, 0) + "%",
               util::format_double(c.jitter_ms, 0),
               util::format_double(c.report.detected_at.value_or(-1.0), 1),
               util::format_double(c.report.converged_at.value_or(-1.0), 1),
               std::to_string(c.report.retransmissions),
               std::to_string(c.report.duplicates_suppressed),
               std::to_string(c.report.spurious_detections),
               std::to_string(c.report.degraded_flows),
               c.report.all_flows_deliverable ? "yes" : "NO"});
  }
  t.print(std::cout);

  bool all_deliverable = true;
  for (const auto& c : cells) {
    all_deliverable &= c.report.all_flows_deliverable;
  }
  std::cout << "\n"
            << (all_deliverable
                    ? "every cell converged with all flows deliverable"
                    : "WARNING: some cells broke delivery")
            << "\n";

  if (csv_path) {
    std::ofstream out(*csv_path);
    util::CsvWriter csv(out);
    csv.write_row({"loss", "jitter_ms", "detected_ms", "converged_ms",
                   "messages_sent", "injected_drops",
                   "injected_duplicates", "retransmissions",
                   "duplicates_suppressed", "spurious_detections",
                   "degraded_flows", "degraded_switches",
                   "all_flows_deliverable"});
    for (const auto& c : cells) {
      csv.write_row({util::format_double(c.loss, 2),
                     util::format_double(c.jitter_ms, 1),
                     util::format_double(c.report.detected_at.value_or(-1.0),
                                         3),
                     util::format_double(
                         c.report.converged_at.value_or(-1.0), 3),
                     std::to_string(c.report.messages_sent),
                     std::to_string(c.report.injected_drops),
                     std::to_string(c.report.injected_duplicates),
                     std::to_string(c.report.retransmissions),
                     std::to_string(c.report.duplicates_suppressed),
                     std::to_string(c.report.spurious_detections),
                     std::to_string(c.report.degraded_flows),
                     std::to_string(c.report.degraded_switches),
                     c.report.all_flows_deliverable ? "true" : "false"});
    }
    std::cout << "[csv written to " << *csv_path << "]\n";
  }
  if (as_json) {
    util::JsonValue rows = util::JsonValue::array();
    for (const auto& c : cells) {
      util::JsonValue row = util::JsonValue::object();
      row["loss"] = c.loss;
      row["jitter_ms"] = c.jitter_ms;
      row["detected_ms"] = c.report.detected_at.value_or(-1.0);
      row["converged_ms"] = c.report.converged_at.value_or(-1.0);
      row["retransmissions"] =
          static_cast<std::int64_t>(c.report.retransmissions);
      row["duplicates_suppressed"] =
          static_cast<std::int64_t>(c.report.duplicates_suppressed);
      row["spurious_detections"] =
          static_cast<std::int64_t>(c.report.spurious_detections);
      row["degraded_flows"] =
          static_cast<std::int64_t>(c.report.degraded_flows);
      row["all_flows_deliverable"] = c.report.all_flows_deliverable;
      rows.push_back(std::move(row));
    }
    std::cout << rows.to_string(2) << "\n";
  }
  if (mid_recovery && !interrupted) {
    // The coordinator after C13's failure is the lowest surviving id
    // (controller 0); the adopter target is the highest-id controller
    // the wave-1 plan hands switches to, so the kill lands on a node
    // with in-flight flow-mods of its own.
    sdwan::FailureScenario scenario;
    scenario.failed = {3};
    const sdwan::FailureState state(net, scenario);
    const core::RecoveryPlan wave1 = core::run_pm(state, {});
    sdwan::ControllerId adopter = -1;
    for (const auto& [sw, j] : wave1.mapping) {
      if (j != 0) adopter = std::max(adopter, j);
    }
    const std::vector<std::pair<std::string, sdwan::ControllerId>> kills =
        {{"coordinator", 0}, {"adopter", adopter}};
    const std::vector<double> mid_losses = {0.0, 0.02, 0.05};
    const std::vector<double> mid_jitters = {0.0, 20.0};

    std::vector<KillCell> kill_cells;
    std::vector<sdwan::ControllerId> kill_targets;
    for (const auto& [label, target] : kills) {
      for (const double jitter : mid_jitters) {
        for (const double loss : mid_losses) {
          kill_cells.push_back({loss, jitter, label, {}});
          kill_targets.push_back(target);
        }
      }
    }
    kill_cells = pool.parallel_map(
        kill_cells, [&](std::size_t idx, const KillCell& c) -> KillCell {
          if (util::shutdown_requested()) {
            return {c.loss, c.jitter_ms, c.kill, {}, false};
          }
          return {c.loss, c.jitter_ms, c.kill,
                  run_cell(net, c.loss, c.jitter_ms, dup, seed, until,
                           kill_targets[idx], 850.0, nullptr)};
        });
    const std::size_t total_kill_cells = kill_cells.size();
    std::erase_if(kill_cells,
                  [](const KillCell& c) { return !c.computed; });
    if (util::shutdown_requested()) {
      std::cout << "[interrupted: flushing " << kill_cells.size() << " of "
                << total_kill_cells << " mid-recovery cells]\n";
    }

    std::cout << "\n=== Mid-recovery kill sweep: second failure at "
                 "t=850 ms, inside the first wave ===\n\n";
    util::TextTable mid({"kill", "loss", "jitter_ms", "detected_ms",
                         "converged_ms", "failovers", "aborted",
                         "rb_removes", "stale_disc", "audit_viol",
                         "deliverable"});
    bool mid_ok = true;
    for (const auto& c : kill_cells) {
      mid.add_row(
          {c.kill, util::format_double(100.0 * c.loss, 0) + "%",
           util::format_double(c.jitter_ms, 0),
           util::format_double(c.report.detected_at.value_or(-1.0), 1),
           util::format_double(c.report.converged_at.value_or(-1.0), 1),
           std::to_string(c.report.coordinator_failovers),
           std::to_string(c.report.waves_aborted),
           std::to_string(c.report.rollback_removals),
           std::to_string(c.report.stale_discarded),
           std::to_string(c.report.audit_violations),
           c.report.all_flows_deliverable ? "yes" : "NO"});
      mid_ok &= c.report.all_flows_deliverable && c.report.audit_clean;
    }
    mid.print(std::cout);
    std::cout << "\n"
              << (mid_ok ? "every mid-recovery cell converged with a "
                           "clean consistency audit"
                         : "WARNING: mid-recovery cells broke delivery "
                           "or consistency")
              << "\n";
    all_deliverable &= mid_ok;

    if (mid_csv_path) {
      std::ofstream out(*mid_csv_path);
      util::CsvWriter csv(out);
      csv.write_row({"kill", "loss", "jitter_ms", "detected_ms",
                     "converged_ms", "coordinator_failovers",
                     "waves_aborted", "rollback_removals",
                     "stale_discarded", "audit_violations",
                     "all_flows_deliverable"});
      for (const auto& c : kill_cells) {
        csv.write_row(
            {c.kill, util::format_double(c.loss, 2),
             util::format_double(c.jitter_ms, 1),
             util::format_double(c.report.detected_at.value_or(-1.0), 3),
             util::format_double(c.report.converged_at.value_or(-1.0),
                                 3),
             std::to_string(c.report.coordinator_failovers),
             std::to_string(c.report.waves_aborted),
             std::to_string(c.report.rollback_removals),
             std::to_string(c.report.stale_discarded),
             std::to_string(c.report.audit_violations),
             c.report.all_flows_deliverable ? "true" : "false"});
      }
      std::cout << "[mid-recovery csv written to " << *mid_csv_path
                << "]\n";
    }
  }
  if (util::shutdown_requested()) return 130;
  return all_deliverable ? 0 : 1;
}
