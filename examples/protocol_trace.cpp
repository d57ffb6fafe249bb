// protocol_trace — the control-plane protocol end to end: heartbeats,
// timeout-based failure detection, coordinator election, and one
// RoleRequest per switch carrying its SDN slice, with the message counts
// and timeline a network operator would read off a packet capture.
// Optionally runs the whole exchange over a lossy channel (seeded fault
// injection) to show the reliable-delivery machinery at work.
//
// Usage: ./build/examples/protocol_trace [--fail=13,20] [--until=10000]
//        [--kill-at=<ms>:<node>]...
//        [--suspicion-checks=1]
//        [--loss=0.1] [--dup=0.05] [--jitter=20]
//        [--reorder=0.01] [--reorder-delay=40] [--fault-seed=42]
//        [--trace-out=t.json] [--trace-jsonl=t.jsonl]
//        [--metrics-out=m.prom] [--metrics-json=m.json]
//        [--log-level=info]
//
// --fail crashes every controller at the named nodes together at
// t = 500 ms. --kill-at is repeatable and crashes the controller at
// <node> at t = <ms>: after a wave has converged (successive failures,
// e.g. --fail=13 --kill-at=3000:20) or inside a recovery window, where
// killing the coordinator or an adopting controller mid-wave exercises
// the transactional failover/replan/sweep path. <node> is read exactly
// like --fail; a malformed spec, or a node in either flag that hosts no
// controller, exits 2.
//
// --trace-out writes a Chrome trace_event file (load in Perfetto /
// chrome://tracing); --metrics-out writes Prometheus text exposition.
// Both derive from the simulated clock only, so same-seed runs produce
// byte-identical files.
#include <climits>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "failure_flag.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const std::string fail_spec = args.get_string("fail", "13,20");
  const double until = args.get_double("until", 10000.0, 0.0, util::kUnbounded);
  ctrl::ControllerConfig config;
  config.suspicion_checks =
      static_cast<int>(args.get_int("suspicion-checks", 1, 1, INT_MAX));
  const std::vector<std::string> kill_specs = args.get_strings("kill-at");

  ctrl::ChannelFaultModel faults;
  faults.drop_probability = args.get_double("loss", 0.0, 0.0, 1.0);
  faults.duplicate_probability = args.get_double("dup", 0.0, 0.0, 1.0);
  faults.jitter_ms = args.get_double("jitter", 0.0, 0.0, util::kUnbounded);
  faults.reorder_probability = args.get_double("reorder", 0.0, 0.0, 1.0);
  faults.reorder_delay_ms =
      args.get_double("reorder-delay", 40.0, 0.0, util::kUnbounded);
  faults.seed = static_cast<std::uint64_t>(
      args.get_int("fault-seed", 42, 0, LLONG_MAX));
  const obs::ObsOptions obs_options = obs::parse_obs_flags(args);

  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureScenario scenario = examples::parse_failure_or_exit(
      net, "protocol_trace", "--fail=" + fail_spec, fail_spec);

  // --fail crashes at 500 ms, then each --kill-at <ms>:<node>; a spec
  // that names no time or no controller node is refused like a bad flag.
  std::vector<std::pair<double, sdwan::FailureScenario>> kills = {
      {500.0, scenario}};
  for (const std::string& spec : kill_specs) {
    const std::size_t colon = spec.find(':');
    double t = 0.0;
    if (colon == std::string::npos ||
        !util::parse_double(spec.substr(0, colon), t) ||
        !(t >= 0.0 && t < util::kUnbounded)) {
      std::cerr << "protocol_trace: --kill-at=" << spec
                << " is not <ms>:<node>\n";
      return 2;
    }
    kills.emplace_back(t, examples::parse_failure_or_exit(
                              net, "protocol_trace", "--kill-at=" + spec,
                              spec.substr(colon + 1)));
  }

  ctrl::ControlSimulation simulation(
      net,
      [](const sdwan::FailureState& state,
         const core::RecoveryPlan* previous) {
        core::PmOptions opts;
        opts.seed = previous;
        return core::run_pm(state, opts);
      },
      config);
  simulation.set_fault_model(faults);
  simulation.observability().tracer.set_enabled(
      obs_options.tracing_requested());
  simulation.observability().detailed_metrics =
      obs_options.detailed_requested();

  std::cout << "=== Control-plane protocol trace ===\n";
  if (faults.active()) {
    std::cout << "channel faults: loss=" << faults.drop_probability
              << " dup=" << faults.duplicate_probability
              << " jitter=" << util::format_double(faults.jitter_ms, 1)
              << "ms reorder=" << faults.reorder_probability
              << " seed=" << faults.seed << "\n";
  }
  for (const auto& [at, victims] : kills) {
    for (const sdwan::ControllerId j : victims.failed) {
      std::cout << "scheduling crash of " << net.controller(j).name
                << " at t=" << util::format_double(at, 0) << " ms\n";
      simulation.fail_controller_at(j, at);
    }
  }

  const ctrl::SimulationReport report = simulation.run(until);

  std::cout << "\ntimeline:\n"
            << "  first detection   t="
            << (report.detected_at
                    ? util::format_double(*report.detected_at, 1) + " ms"
                    : std::string("never"))
            << "\n"
            << "  last wave acked   t="
            << (report.converged_at
                    ? util::format_double(*report.converged_at, 1) + " ms"
                    : std::string("never"))
            << "\n"
            << "  recovery waves    " << report.recovery_waves << "\n"
            << "  adopted switches  " << report.adopted_switches << "\n"
            << "  flows programmed  " << report.flows_with_entries << "\n"
            << "  data plane audit  "
            << (report.all_flows_deliverable ? "all flows deliverable ✓"
                                             : "DELIVERY BROKEN")
            << "\n";
  if (report.degraded_flows > 0 || report.degraded_switches > 0) {
    std::cout << "  degraded          " << report.degraded_flows
              << " flows, " << report.degraded_switches
              << " switches (legacy fallback)\n";
  }
  std::cout << "  consistency audit "
            << (report.audit_clean
                    ? "clean ✓"
                    : std::to_string(report.audit_violations) +
                          " violation(s)")
            << "\n";
  if (!report.audit_clean) {
    for (const auto& [invariant, count] :
         simulation.audit().by_invariant()) {
      std::cout << "    " << invariant << "  " << count << "\n";
    }
  }
  if (report.waves_aborted > 0 || report.coordinator_failovers > 0 ||
      report.stale_discarded > 0) {
    std::cout << "\ntransactional recovery:\n"
              << "  waves aborted     " << report.waves_aborted << "\n"
              << "  coord failovers   " << report.coordinator_failovers
              << "\n"
              << "  stale discarded   " << report.stale_discarded
              << "\n";
  }
  if (faults.active()) {
    std::cout << "\nreliable delivery under faults:\n"
              << "  injected drops    " << report.injected_drops << "\n"
              << "  injected dups     " << report.injected_duplicates
              << "\n"
              << "  reordered         " << report.reordered_messages
              << "\n"
              << "  partition drops   " << report.partition_drops << "\n"
              << "  retransmissions   " << report.retransmissions << "\n"
              << "  dups suppressed   " << report.duplicates_suppressed
              << "\n"
              << "  spurious detects  " << report.spurious_detections
              << "\n";
  }
  std::cout << "\nmessages on the control channel:\n";
  util::TextTable t({"kind", "count"});
  for (const auto& [kind, count] : report.messages_by_kind) {
    t.add_row({kind, std::to_string(count)});
  }
  t.add_row({"total", std::to_string(report.messages_sent)});
  t.print(std::cout);

  const bool written =
      obs::write_outputs(obs_options, simulation.observability());
  return report.all_flows_deliverable && written ? 0 : 1;
}
