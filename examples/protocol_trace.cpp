// protocol_trace — the control-plane protocol end to end: heartbeats,
// timeout-based failure detection, coordinator election, role handover
// and flow-mod distribution, with the message counts and timeline a
// network operator would read off a packet capture. Optionally runs the
// whole exchange over a lossy channel (seeded fault injection) to show
// the reliable-delivery machinery at work.
//
// Usage: ./build/examples/protocol_trace [--fail=13,20]
//        [--second-failure-at=3000] [--until=10000]
//        [--kill-at=<time>:<controller>]...
//        [--heartbeat=50] [--timeout=200] [--suspicion-checks=1]
//        [--retries=5] [--backoff=2] [--rto-margin=60]
//        [--loss=0.1] [--dup=0.05] [--jitter=20]
//        [--reorder=0.01] [--reorder-delay=40] [--fault-seed=42]
//        [--trace-out=t.json] [--trace-jsonl=t.jsonl]
//        [--metrics-out=m.prom] [--metrics-json=m.json]
//        [--profile-out=p.json] [--log-level=info]
//
// --kill-at is repeatable and may land INSIDE a recovery window: killing
// the coordinator (or an adopting controller) mid-wave exercises the
// transactional failover/replan/rollback path. <controller> is a
// controller id or its topology node location (e.g. 850:0 or 850:4).
//
// --trace-out writes a Chrome trace_event file (load in Perfetto /
// chrome://tracing); --metrics-out writes Prometheus text exposition.
// Both derive from the simulated clock only, so same-seed runs produce
// byte-identical files.
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const std::string fail_spec = args.get_string("fail", "13,20");
  const double second_at = args.get_double("second-failure-at", 3000.0);
  const double until = args.get_double("until", 10000.0);
  ctrl::ControllerConfig config;
  config.heartbeat_interval_ms = args.get_double("heartbeat", 50.0);
  config.detection_timeout_ms = args.get_double("timeout", 200.0);
  config.suspicion_checks =
      static_cast<int>(args.get_int("suspicion-checks", 1));
  config.max_retries = static_cast<int>(args.get_int("retries", 5));
  config.retransmit_backoff = args.get_double("backoff", 2.0);
  config.retransmit_margin_ms = args.get_double("rto-margin", 60.0);
  const std::vector<std::string> kill_specs = args.get_strings("kill-at");

  ctrl::ChannelFaultModel faults;
  faults.drop_probability = args.get_double("loss", 0.0);
  faults.duplicate_probability = args.get_double("dup", 0.0);
  faults.jitter_ms = args.get_double("jitter", 0.0);
  faults.reorder_probability = args.get_double("reorder", 0.0);
  faults.reorder_delay_ms = args.get_double("reorder-delay", 40.0);
  faults.seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 42));
  const obs::ObsOptions obs_options = obs::parse_obs_flags(args);
  for (const auto& unused : args.unused()) {
    obs::log().warn("unrecognized flag --" + unused);
  }

  const sdwan::Network net = core::make_att_network();
  std::set<int> fail_nodes;
  for (const auto& tok : util::split(fail_spec, ',')) {
    long long v = 0;
    if (util::parse_int(tok, v)) fail_nodes.insert(static_cast<int>(v));
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

  // Crash the named controllers: the first at t = 500 ms, any further
  // ones at --second-failure-at (successive-failure mode).
  double at = 500.0;
  std::cout << "=== Control-plane protocol trace ===\n";
  if (faults.active()) {
    std::cout << "channel faults: loss=" << faults.drop_probability
              << " dup=" << faults.duplicate_probability
              << " jitter=" << util::format_double(faults.jitter_ms, 1)
              << "ms reorder=" << faults.reorder_probability
              << " seed=" << faults.seed << "\n";
  }
  for (int j = 0; j < net.controller_count(); ++j) {
    if (!fail_nodes.contains(net.controller(j).location)) continue;
    std::cout << "scheduling crash of " << net.controller(j).name
              << " at t=" << util::format_double(at, 0) << " ms\n";
    simulation.fail_controller_at(j, at);
    at = second_at;
  }
  // Additional kills, usable inside the recovery window: each spec is
  // <time>:<controller>, controller given as id or node location.
  for (const std::string& spec : kill_specs) {
    const auto parts = util::split(spec, ':');
    double t = 0.0;
    long long who = -1;
    if (parts.size() != 2 || !util::parse_double(parts[0], t) ||
        !util::parse_int(parts[1], who)) {
      obs::log().warn("ignoring malformed --kill-at=" + spec);
      continue;
    }
    int target = -1;
    for (int j = 0; j < net.controller_count(); ++j) {
      if (net.controller(j).location == static_cast<int>(who)) target = j;
    }
    if (target < 0 && who >= 0 && who < net.controller_count()) {
      target = static_cast<int>(who);
    }
    if (target < 0) {
      obs::log().warn("ignoring --kill-at=" + spec +
                      ": no such controller");
      continue;
    }
    std::cout << "scheduling crash of " << net.controller(target).name
              << " at t=" << util::format_double(t, 0)
              << " ms (mid-recovery kill)\n";
    simulation.fail_controller_at(target, t);
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
      report.rollback_removals > 0 || report.stale_discarded > 0) {
    std::cout << "\ntransactional recovery:\n"
              << "  waves aborted     " << report.waves_aborted << "\n"
              << "  coord failovers   " << report.coordinator_failovers
              << "\n"
              << "  rollback removes  " << report.rollback_removals
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

  obs::write_outputs(obs_options, simulation.observability());
  return report.all_flows_deliverable ? 0 : 1;
}
