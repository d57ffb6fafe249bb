#include "ctrl/simulation.hpp"

#include <algorithm>
#include <vector>

namespace pm::ctrl {

ControlSimulation::ControlSimulation(const sdwan::Network& net,
                                     RecoveryPolicy policy,
                                     ControllerConfig config)
    : net_(&net),
      channel_(net, queue_),
      dataplane_(net.topology(), sdwan::RoutingMode::kHybrid) {
  channel_.set_observability(&obs_);
  obs_.tracer.set_track_name(tracks::kChannel, "channel");
  obs_.tracer.set_track_name(tracks::kSwitches, "switches");
  obs_.tracer.set_track_name(tracks::kWaves, "recovery waves");
  for (sdwan::ControllerId j = 0; j < net.controller_count(); ++j) {
    obs_.tracer.set_track_name(tracks::controller(j),
                               "controller " + net.controller(j).name);
  }
  for (int s = 0; s < net.switch_count(); ++s) {
    switches_.push_back(std::make_unique<SwitchAgent>(
        s, dataplane_.at(s), channel_));
    switches_.back()->attach();
  }
  for (sdwan::ControllerId j = 0; j < net.controller_count(); ++j) {
    controllers_.push_back(std::make_unique<ControllerNode>(
        net, j, channel_, queue_, shared_, policy, config));
  }
  // Normal operation: every switch mastered by its domain controller.
  for (int s = 0; s < net.switch_count(); ++s) {
    const sdwan::ControllerId j = net.controller_of(s);
    switches_[static_cast<std::size_t>(s)]->set_initial_master(j);
  }
  for (auto& c : controllers_) c->start();
}

void ControlSimulation::fail_controller_at(sdwan::ControllerId j,
                                           double at_ms) {
  queue_.schedule_at(at_ms, [this, j] {
    // Orphan every switch the controller currently masters: its original
    // domain plus any mid-wave adoptions (a successor wave's auditor
    // would otherwise find switches mastered by a dead controller).
    std::vector<sdwan::SwitchId> orphaned;
    for (auto& agent : switches_) {
      if (agent->master() == j) orphaned.push_back(agent->id());
    }
    if (obs_.tracer.enabled()) {
      obs_.tracer.instant(
          queue_.now(), "sim", "controller.fail", tracks::controller(j),
          {{"controller", static_cast<int>(j)},
           {"orphaned_switches",
            static_cast<std::int64_t>(orphaned.size())}});
    }
    controllers_[static_cast<std::size_t>(j)]->fail();
    for (const sdwan::SwitchId s : orphaned) {
      switches_[static_cast<std::size_t>(s)]->orphan();
    }
  });
}

SimulationReport ControlSimulation::run(double until_ms) {
  queue_.run(until_ms);
  const AuditReport audit_report = audit();
  const SimulationReport report = make_report(audit_report);
  write_metrics(report, audit_report);
  return report;
}

SimulationReport ControlSimulation::make_report(
    const AuditReport& audit_report) const {
  SimulationReport report;
  report.messages_sent = channel_.messages_sent();
  report.messages_by_kind = channel_.sent_by_kind();
  report.retransmissions = channel_.retransmissions();
  const FaultStats& faults = channel_.fault_stats();
  report.injected_drops = faults.injected_drops;
  report.injected_duplicates = faults.injected_duplicates;
  report.reordered_messages = faults.reordered;
  report.partition_drops = faults.partition_drops;

  report.stale_discarded = shared_.stale_discarded;
  for (const auto& c : controllers_) {
    report.duplicates_suppressed += c->duplicates_suppressed();
    if (!c->alive()) continue;
    report.spurious_detections += c->spurious_detections();
    if (c->first_detection_at() >= 0 &&
        (!report.detected_at ||
         c->first_detection_at() < *report.detected_at)) {
      report.detected_at = c->first_detection_at();
    }
    report.recovery_waves += c->recoveries_run();
  }
  for (const auto& a : switches_) {
    report.duplicates_suppressed += a->duplicates_suppressed();
    report.stale_discarded += a->stale_discarded();
  }
  if (shared_.converged_at >= 0.0) report.converged_at = shared_.converged_at;
  report.waves_aborted = shared_.waves_aborted;
  report.coordinator_failovers = shared_.coordinator_failovers;
  report.degraded_switches = shared_.degraded_switches.size();
  if (shared_.last_plan) {
    std::vector<sdwan::FlowId> degraded;
    for (const core::Assignment& a : shared_.last_plan->sdn_assignments) {
      if (shared_.degraded_switches.contains(a.sw)) degraded.push_back(a.flow);
    }
    std::sort(degraded.begin(), degraded.end());
    report.degraded_flows = static_cast<std::size_t>(
        std::unique(degraded.begin(), degraded.end()) - degraded.begin());
  }

  // Data-plane audit.
  report.all_flows_deliverable = !net_->flows().empty();
  for (const auto& f : net_->flows()) {
    report.all_flows_deliverable &=
        dataplane_.trace(f.src, {f.src, f.dst}).delivered;
  }
  // The agents install exact (src, dst) matches only, so a flow has an
  // entry iff some switch holds its match.
  std::vector<char> has_entry(static_cast<std::size_t>(net_->flow_count()),
                              0);
  for (int s = 0; s < net_->switch_count(); ++s) {
    const auto& agent = *switches_[static_cast<std::size_t>(s)];
    for (const sdwan::FlowEntry& e : dataplane_.at(s).flow_table()) {
      const sdwan::FlowId flow = net_->flow_by_match(e.match.src, e.match.dst);
      if (flow >= 0 && has_entry[static_cast<std::size_t>(flow)] == 0) {
        has_entry[static_cast<std::size_t>(flow)] = 1;
        ++report.flows_with_entries;
      }
    }
    if (agent.master() >= 0 &&
        agent.master() != net_->controller_of(s)) {
      ++report.adopted_switches;
    }
  }

  report.audit_violations = audit_report.violations.size();
  report.audit_clean = audit_report.clean();
  return report;
}

void ControlSimulation::write_metrics(const SimulationReport& report,
                                      const AuditReport& audit_report) {
  obs::MetricsRegistry& m = obs_.metrics;
  // Counters are monotonic: publish the delta against what the registry
  // already holds, so a second run() call stays consistent.
  const auto set_counter = [&](const std::string& name,
                               const std::string& help, std::uint64_t v,
                               const obs::Labels& labels = {}) {
    obs::Counter& c = m.counter(name, help, labels);
    if (v > c.value()) c.inc(v - c.value());
  };
  const auto set_gauge = [&](const std::string& name,
                             const std::string& help, double v) {
    m.gauge(name, help).set(v);
  };

  set_counter("pm_messages_sent_total",
              "Messages accepted by the control channel",
              report.messages_sent);
  for (const auto& [kind, count] : report.messages_by_kind) {
    set_counter("pm_messages_total", "Control messages by kind", count,
                {{"kind", kind}});
  }
  set_counter("pm_messages_dropped_total",
              "Messages dropped at an unknown or detached endpoint",
              channel_.messages_dropped());
  set_counter("pm_retransmissions_total",
              "Reply-driven RoleRequest retransmissions",
              report.retransmissions);
  set_counter("pm_injected_drops_total", "Channel fault-injected drops",
              report.injected_drops);
  set_counter("pm_injected_duplicates_total",
              "Channel fault-injected duplicates",
              report.injected_duplicates);
  set_counter("pm_reordered_messages_total",
              "Messages grossly reordered by the fault model",
              report.reordered_messages);
  set_counter("pm_partition_drops_total",
              "Messages dropped inside partition windows",
              report.partition_drops);
  set_counter("pm_sim_events_executed_total",
              "Event-queue callbacks executed",
              queue_.executed_total());
  set_counter("pm_recovery_waves_total",
              "Recovery waves run by coordinators", report.recovery_waves);
  set_counter("pm_duplicates_suppressed_total",
              "Received messages suppressed as duplicates",
              report.duplicates_suppressed);
  set_counter("pm_spurious_detections_total",
              "Peers suspected and later proven alive",
              report.spurious_detections);
  set_counter("pm_stale_discarded_total",
              "Stale-epoch messages discarded (switches + controllers)",
              report.stale_discarded);
  set_counter("pm_waves_aborted_total",
              "Recovery waves superseded while still preparing",
              report.waves_aborted);
  set_counter("pm_coordinator_failovers_total",
              "Successor coordinators taking over a dead one's wave",
              report.coordinator_failovers);

  obs::Histogram& load = m.histogram(
      "pm_switch_flow_entries",
      "Per-switch SDN flow-table size at the end of the run",
      {0, 1, 2, 5, 10, 20, 50, 100});
  for (int s = 0; s < net_->switch_count(); ++s) {
    load.observe(static_cast<double>(dataplane_.at(s).flow_table_size()));
  }

  // The gauges keep the Prometheus-friendly -1 sentinel for the
  // report's empty optionals.
  set_gauge("pm_detected_at_ms",
            "First failure-detector firing; -1 = never",
            report.detected_at.value_or(-1.0));
  set_gauge("pm_converged_at_ms",
            "Last recovery wave fully replied; -1 = not converged",
            report.converged_at.value_or(-1.0));
  set_gauge("pm_flows_with_entries",
            "Flows whose SDN entries are installed in the data plane",
            static_cast<double>(report.flows_with_entries));
  set_gauge("pm_adopted_switches", "Switches adopted by a new master",
            static_cast<double>(report.adopted_switches));
  set_gauge("pm_degraded_flows",
            "Flows of the last plan with an assignment on a degraded switch",
            static_cast<double>(report.degraded_flows));
  set_gauge("pm_degraded_switches",
            "Switches whose RoleRequest retries exhausted",
            static_cast<double>(report.degraded_switches));
  set_gauge("pm_all_flows_deliverable",
            "Data-plane audit: 1 if every flow is still deliverable",
            report.all_flows_deliverable ? 1.0 : 0.0);

  // Consistency audit against the committed plan/epoch.
  for (const auto& [invariant, count] : audit_report.by_invariant()) {
    m.gauge("pm_audit_violations_by_invariant",
            "Consistency-audit violations per invariant family",
            {{"invariant", invariant}})
        .set(static_cast<double>(count));
  }
  set_gauge("pm_audit_violations",
            "Post-run consistency-audit violations (0 = clean)",
            static_cast<double>(report.audit_violations));
  set_gauge("pm_audit_clean",
            "1 if the post-run consistency audit found no violations",
            report.audit_clean ? 1.0 : 0.0);
}

AuditReport ControlSimulation::audit() const {
  std::vector<const SwitchAgent*> agents;
  agents.reserve(switches_.size());
  for (const auto& a : switches_) agents.push_back(a.get());
  std::vector<bool> alive;
  alive.reserve(controllers_.size());
  for (const auto& c : controllers_) alive.push_back(c->alive());
  return audit_recovery(*net_, dataplane_, agents, alive, shared_);
}

}  // namespace pm::ctrl
