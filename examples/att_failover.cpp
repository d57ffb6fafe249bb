// att_failover — the paper's headline scenario, end to end.
//
// Fails the controllers at the given nodes (default: 13 and 20, the
// paper's pivotal double failure), runs all algorithms and explains what
// happened to hub switch 13. PM's recovery of the same failure on the
// wire (detection, last acknowledgement, messages) is what
// `protocol_trace --fail=13,20 --until=2000` prints.
//
// Usage: ./build/examples/att_failover [--fail=13,20] [--optimal]
//        [--json=report.json]
#include <iostream>

#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"
#include "failure_flag.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const std::string fail_spec = args.get_string("fail", "13,20");
  const bool with_optimal = args.get_bool("optimal", false);
  const std::string json_path = args.get_string("json", "");
  obs::apply_log_level_flag(args);

  const sdwan::Network net = core::make_att_network();

  const sdwan::FailureScenario scenario = examples::parse_failure_or_exit(
      net, "att_failover", "--fail=" + fail_spec, fail_spec);
  if (!json_path.empty() && !obs::check_writable(json_path, "PM plan")) {
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
      for (const core::Assignment& a : pm.sdn_assignments) {
        if (a.sw == 13) ++at13;
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
    if (!obs::write_file(
            json_path,
            [&](std::ostream& out) { out << json.to_string(2) << "\n"; },
            "PM plan")) {
      return 1;
    }
  }

  return 0;
}
