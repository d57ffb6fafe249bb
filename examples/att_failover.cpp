// att_failover — the paper's headline scenario, end to end, with the
// recovery timeline.
//
// Fails the controllers at the given nodes (default: 13 and 20, the
// paper's pivotal double failure), runs all algorithms, explains what
// happened to hub switch 13, and runs PM's recovery through the
// message-level control-plane simulation (ctrl::ControlSimulation).
//
// Usage: ./build/examples/att_failover [--fail=13,20] [--optimal]
//        [--optimal-time=30] [--json=report.json]
#include <fstream>
#include <iostream>
#include <optional>
#include <set>

#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"
#include "ctrl/simulation.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const std::string fail_spec = args.get_string("fail", "13,20");
  const bool with_optimal = args.get_bool("optimal", false);
  const double optimal_time = args.get_double("optimal-time", 30.0);
  const std::string json_path = args.get_string("json", "");
  obs::apply_log_level_flag(args);
  for (const auto& unused : args.unused()) {
    obs::log().warn("unrecognized flag --" + unused);
  }

  const sdwan::Network net = core::make_att_network();

  // Resolve failed controller ids from node ids.
  std::set<int> fail_nodes;
  for (const auto& tok : util::split(fail_spec, ',')) {
    long long node = 0;
    if (!util::parse_int(tok, node)) {
      obs::log().error("bad --fail value '" + tok + "'");
      return 1;
    }
    fail_nodes.insert(static_cast<int>(node));
  }
  sdwan::FailureScenario scenario;
  for (int j = 0; j < net.controller_count(); ++j) {
    if (fail_nodes.contains(net.controller(j).location)) {
      scenario.failed.push_back(j);
    }
  }
  if (scenario.failed.size() != fail_nodes.size()) {
    obs::log().error("--fail must name controller nodes (2,5,6,13,20,22)");
    return 1;
  }

  const sdwan::FailureState state(net, scenario);
  std::cout << "=== ATT failover, failure " << scenario.label(net)
            << " ===\n"
            << state.offline_switches().size() << " offline switches, "
            << state.recoverable_flows().size()
            << " recoverable offline flows, delay budget G = "
            << util::format_double(state.ideal_total_delay(), 1)
            << " ms\nresidual capacities:";
  for (sdwan::ControllerId j : state.active_controllers()) {
    std::cout << "  " << net.controller(j).name << "="
              << util::format_double(state.rest_capacity(j), 0);
  }
  std::cout << "\n";

  core::RunnerOptions opts;
  opts.run_optimal = with_optimal;
  opts.optimal.time_limit_seconds = optimal_time;
  const core::CaseResult r = core::run_case(net, scenario, opts);

  util::TextTable t({"algorithm", "least", "total", "recovered flows",
                     "switches", "capacity used", "overhead ms/flow",
                     "time"});
  for (const auto& [name, m] : r.metrics) {
    t.add_row({name, std::to_string(m.least_programmability),
               std::to_string(m.total_programmability),
               util::format_double(100.0 * m.recovered_flow_fraction, 1) +
                   "% (" + std::to_string(m.recovered_flow_count) + ")",
               std::to_string(m.recovered_switch_count) + "/" +
                   std::to_string(m.offline_switch_count),
               util::format_double(m.used_control_resource, 0) + "/" +
                   util::format_double(m.available_control_resource, 0),
               util::format_double(m.per_flow_overhead_ms, 2),
               util::format_double(m.solve_seconds * 1000.0, 2) + " ms"});
  }
  t.print(std::cout);

  // The hub story (Sec. VI-C-2): what happened to switch 13?
  if (state.is_offline_switch(13)) {
    std::cout << "\nhub switch 13 (gamma = " << state.gamma(13) << "):\n";
    const core::RecoveryPlan retro = core::run_retroflow(state);
    const core::RecoveryPlan pm = core::run_pm(state);
    if (!retro.mapping.contains(13)) {
      std::cout
          << "  RetroFlow: STRANDED — its whole-switch cost exceeds every "
             "controller's residual capacity\n";
    }
    if (pm.mapping.contains(13)) {
      std::size_t at13 = 0;
      for (const auto& [sw, flow] : pm.sdn_assignments) {
        (void)flow;
        if (sw == 13) ++at13;
      }
      std::cout << "  PM: recovered by mapping it to "
                << net.controller(pm.mapping.at(13)).name << " with "
                << at13 << " of " << state.gamma(13)
                << " flows in SDN mode (the rest ride the legacy table)\n";
    }
  }

  // Machine-readable report of PM's plan.
  if (!json_path.empty()) {
    const core::RecoveryPlan plan = core::run_pm(state);
    const auto json = core::case_report_to_json(
        scenario.label(net), plan, core::evaluate_plan(state, plan));
    std::ofstream out(json_path);
    out << json.to_string(2) << "\n";
    std::cout << "\n[PM plan written to " << json_path << "]\n";
  }

  // PM's recovery on the wire: the failed controllers crash together at
  // t=500 ms, the survivors' heartbeat detectors notice, and the
  // coordinator distributes PM's plan as RoleRequests and FlowMods.
  ctrl::ControlSimulation simulation(
      net, [](const sdwan::FailureState& st,
              const core::RecoveryPlan* previous) {
        core::PmOptions pm_opts;
        pm_opts.seed = previous;
        return core::run_pm(st, pm_opts);
      });
  for (const sdwan::ControllerId j : scenario.failed) {
    simulation.fail_controller_at(j, 500.0);
  }
  const ctrl::SimulationReport report = simulation.run(2000.0);
  const auto at = [](const std::optional<double>& t) {
    return t ? util::format_double(*t, 1) + " ms" : std::string("never");
  };
  std::cout << "\nPM recovery timeline (control-plane simulation, crash at "
               "500 ms):\n"
            << "  failure detected at      " << at(report.detected_at)
            << "\n"
            << "  last flow-mod acked at   " << at(report.converged_at)
            << "\n"
            << "  flows programmed         " << report.flows_with_entries
            << "\n"
            << "  control messages by 2 s  " << report.messages_sent
            << "\n";
  return 0;
}
