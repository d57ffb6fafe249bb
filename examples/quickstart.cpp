// Quickstart: the whole PM pipeline on a toy SD-WAN in ~60 lines of
// user code.
//
//   1. Build a topology (here: the 5-switch domain of the paper's Fig. 1
//      plus a second domain).
//   2. Wrap it in an sdwan::Network (all-pairs flows, programmability).
//   3. Declare a controller failure and derive the FailureState.
//   4. Run ProgrammabilityMedic and inspect the recovery plan.
//
// Build & run:  ./build/examples/quickstart [--log-level=LEVEL]
#include <iostream>

#include "core/metrics.hpp"
#include "core/pm_algorithm.hpp"
#include "obs/obs.hpp"
#include "sdwan/failure.hpp"
#include "topo/topology.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  obs::apply_log_level_flag(args);

  // --- 1. Topology: two domains of a small WAN.
  topo::Topology topo("quickstart");
  // Domain A (the paper's Fig. 1 D2 shape).
  const auto s20 = topo.add_node({"s20", 39.0, -104.9});
  const auto s21 = topo.add_node({"s21", 39.8, -105.2});
  const auto s22 = topo.add_node({"s22", 38.9, -104.0});
  const auto s23 = topo.add_node({"s23", 39.9, -104.1});
  const auto s24 = topo.add_node({"s24", 39.5, -103.2});
  // Domain B.
  const auto s10 = topo.add_node({"s10", 41.0, -104.8});
  const auto s11 = topo.add_node({"s11", 41.5, -104.0});
  topo.add_link(s20, s21);
  topo.add_link(s20, s22);
  topo.add_link(s21, s23);
  topo.add_link(s22, s23);
  topo.add_link(s22, s24);
  topo.add_link(s23, s24);
  topo.add_link(s21, s10);
  topo.add_link(s23, s10);
  topo.add_link(s10, s11);
  topo.add_link(s23, s11);

  // --- 2. Network: controller at s22 controls domain A, controller at
  // s10 controls domain B; each can manage 40 flow entries beyond its
  // normal load.
  sdwan::NetworkConfig config;
  config.controller_capacity = 120.0;
  const sdwan::Network net(
      std::move(topo),
      {{s22, {s20, s21, s22, s23, s24}}, {s10, {s10, s11}}}, config);

  std::cout << "network: " << net.switch_count() << " switches, "
            << net.flow_count() << " flows, " << net.controller_count()
            << " controllers\n";

  // --- 3. Fail the controller of domain A (controller index 1 — ids
  // follow ascending location: C10 is 0, C22 is 1).
  const sdwan::FailureState state(net, {{1}});
  std::cout << "failure " << state.scenario().label(net) << ": "
            << state.offline_switches().size() << " offline switches, "
            << state.offline_flows().size() << " offline flows ("
            << state.recoverable_flows().size() << " recoverable)\n";

  // --- 4. Recover with ProgrammabilityMedic.
  const core::RecoveryPlan plan = core::run_pm(state);
  const core::RecoveryMetrics m = core::evaluate_plan(state, plan);

  std::cout << "\nPM plan: " << plan.mapping.size()
            << " switches remapped, " << plan.sdn_assignments.size()
            << " flow entries in SDN mode\n";
  for (const auto& [sw, ctrl] : plan.mapping) {
    std::cout << "  switch " << net.topology().node(sw).label << " -> "
              << net.controller(ctrl).name << "\n";
  }
  std::cout << "recovered " << m.recovered_flow_count << "/"
            << m.recoverable_flow_count
            << " flows; least programmability " << m.least_programmability
            << ", total " << m.total_programmability
            << ", per-flow overhead "
            << util::format_double(m.per_flow_overhead_ms, 3) << " ms\n";

  const auto violations = core::validate_plan(state, plan);
  std::cout << (violations.empty() ? "plan valid ✓"
                                   : "PLAN INVALID: " + violations.front())
            << "\n";
  return violations.empty() ? 0 : 1;
}
