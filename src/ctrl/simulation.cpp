#include "ctrl/simulation.hpp"

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
    switches_[static_cast<std::size_t>(s)]->set_initial_master(
        j, controller_endpoint(net, j));
  }
  for (auto& c : controllers_) c->start();
}

void ControlSimulation::fail_controller_at(sdwan::ControllerId j,
                                           double at_ms) {
  queue_.schedule_at(at_ms, [this, j] {
    // The channel's memoized pairwise delays were computed against the
    // pre-failure state; drop them so later sends re-derive (today the
    // topology itself is unchanged by a controller crash, but any
    // failure event that reweights/cuts links flows through this hook).
    channel_.invalidate_delays();
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
  OBS_SPAN("ctrl.simulation.run");
  queue_.run(until_ms);
  publish_metrics();
  return report_from_metrics();
}

void ControlSimulation::publish_metrics() {
  obs::MetricsRegistry& m = obs_.metrics;
  // Counters are monotonic: publish the delta against what the registry
  // already holds, so a second run() call stays consistent.
  const auto set_counter = [&](const std::string& name,
                               const std::string& help, std::uint64_t v,
                               const obs::Labels& labels = {}) {
    obs::Counter& c = m.counter(name, help, labels);
    if (v > c.value()) c.inc(v - c.value());
  };

  set_counter("pm_messages_sent_total",
              "Messages accepted by the control channel",
              channel_.messages_sent());
  for (const auto& [kind, count] : channel_.sent_by_kind()) {
    set_counter("pm_messages_total", "Control messages by kind", count,
                {{"kind", kind}});
  }
  set_counter("pm_messages_dropped_total",
              "Messages dropped at an unknown or detached endpoint",
              channel_.messages_dropped());
  set_counter("pm_retransmissions_total",
              "Ack-driven retransmissions (RoleRequest + FlowMod)",
              channel_.retransmissions());
  const FaultStats& faults = channel_.fault_stats();
  set_counter("pm_injected_drops_total", "Channel fault-injected drops",
              faults.injected_drops);
  set_counter("pm_injected_duplicates_total",
              "Channel fault-injected duplicates",
              faults.injected_duplicates);
  set_counter("pm_reordered_messages_total",
              "Messages grossly reordered by the fault model",
              faults.reordered);
  set_counter("pm_partition_drops_total",
              "Messages dropped inside partition windows",
              faults.partition_drops);
  set_counter("pm_sim_events_executed_total",
              "Event-queue callbacks executed",
              queue_.executed_total());
  set_counter("pm_sim_events_cancelled_total",
              "Cancelled event-queue entries skipped on pop",
              queue_.cancelled_skipped_total());

  double detected_at = -1.0;
  std::uint64_t recovery_waves = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t spurious_detections = 0;
  std::uint64_t stale_discarded = shared_.stale_discarded;
  for (const auto& c : controllers_) {
    duplicates_suppressed += c->duplicates_suppressed();
    if (!c->alive()) continue;
    spurious_detections += c->spurious_detections();
    if (c->first_detection_at() >= 0 &&
        (detected_at < 0 || c->first_detection_at() < detected_at)) {
      detected_at = c->first_detection_at();
    }
    recovery_waves += c->recoveries_run();
  }
  for (const auto& a : switches_) {
    duplicates_suppressed += a->duplicates_suppressed();
    stale_discarded += a->stale_discarded();
  }
  set_counter("pm_recovery_waves_total",
              "Recovery waves run by coordinators", recovery_waves);
  set_counter("pm_duplicates_suppressed_total",
              "Received messages suppressed as duplicates",
              duplicates_suppressed);
  set_counter("pm_spurious_detections_total",
              "Peers suspected and later proven alive",
              spurious_detections);
  set_counter("pm_stale_discarded_total",
              "Stale-epoch messages discarded (switches + controllers)",
              stale_discarded);
  set_counter("pm_rollback_removals_total",
              "Compensating removal FlowMods sent by rollback",
              shared_.rollback_removals);
  set_counter("pm_rollback_failures_total",
              "Rollback removals whose own retries exhausted",
              shared_.rollback_failures);
  set_counter("pm_waves_aborted_total",
              "Recovery waves superseded while still preparing",
              shared_.waves_aborted);
  set_counter("pm_coordinator_failovers_total",
              "Successor coordinators taking over a dead one's wave",
              shared_.coordinator_failovers);

  // Data-plane audit.
  bool all_flows_deliverable = false;
  std::size_t adopted_switches = 0;
  for (const auto& f : net_->flows()) {
    const auto trace = dataplane_.trace(f.src, {f.src, f.dst});
    if (&f == &net_->flows().front()) {
      all_flows_deliverable = trace.delivered;
    } else {
      all_flows_deliverable &= trace.delivered;
    }
  }
  obs::Histogram& load = m.histogram(
      "pm_switch_flow_entries",
      "Per-switch SDN flow-table size at the end of the run",
      {0, 1, 2, 5, 10, 20, 50, 100});
  // The agents install exact (src, dst) matches only, so a flow has an
  // entry iff some agent holds its match.
  std::vector<char> has_entry(static_cast<std::size_t>(net_->flow_count()),
                              0);
  std::size_t flows_with_entries = 0;
  for (int s = 0; s < net_->switch_count(); ++s) {
    load.observe(
        static_cast<double>(dataplane_.at(s).flow_table_size()));
    const auto& agent = *switches_[static_cast<std::size_t>(s)];
    for (const auto& [match, epoch] : agent.entry_epochs()) {
      const sdwan::FlowId flow = net_->flow_by_match(match.first, match.second);
      if (flow >= 0 && has_entry[static_cast<std::size_t>(flow)] == 0) {
        has_entry[static_cast<std::size_t>(flow)] = 1;
        ++flows_with_entries;
      }
    }
    if (agent.master() >= 0 &&
        agent.master() != net_->controller_of(s)) {
      ++adopted_switches;
    }
  }

  const auto set_gauge = [&](const std::string& name,
                             const std::string& help, double v) {
    m.gauge(name, help).set(v);
  };
  set_gauge("pm_detected_at_ms",
            "First failure-detector firing; -1 = never", detected_at);
  set_gauge("pm_converged_at_ms",
            "Last recovery wave fully acked; -1 = not converged",
            shared_.converged_at);
  set_gauge("pm_flows_with_entries",
            "Flows whose SDN entries are installed in the data plane",
            static_cast<double>(flows_with_entries));
  set_gauge("pm_adopted_switches", "Switches adopted by a new master",
            static_cast<double>(adopted_switches));
  set_gauge("pm_degraded_flows",
            "Flows whose FlowMod retries exhausted (legacy-forwarded)",
            static_cast<double>(shared_.degraded_flows.size()));
  set_gauge("pm_degraded_switches",
            "Switches whose RoleRequest retries exhausted",
            static_cast<double>(shared_.degraded_switches.size()));
  set_gauge("pm_all_flows_deliverable",
            "Data-plane audit: 1 if every flow is still deliverable",
            all_flows_deliverable ? 1.0 : 0.0);

  // Consistency audit against the committed plan/epoch.
  const AuditReport audit_report = audit();
  for (const auto& [invariant, count] : audit_report.by_invariant()) {
    m.gauge("pm_audit_violations_by_invariant",
            "Consistency-audit violations per invariant family",
            {{"invariant", invariant}})
        .set(static_cast<double>(count));
  }
  set_gauge("pm_audit_violations",
            "Post-run consistency-audit violations (0 = clean)",
            static_cast<double>(audit_report.violations.size()));
  set_gauge("pm_audit_clean",
            "1 if the post-run consistency audit found no violations",
            audit_report.clean() ? 1.0 : 0.0);
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

SimulationReport ControlSimulation::report_from_metrics() const {
  const obs::MetricsRegistry& m = obs_.metrics;
  SimulationReport report;
  // The gauges keep the Prometheus-friendly -1 sentinel; the report
  // exposes the same facts as optionals.
  if (const double d = m.gauge_value("pm_detected_at_ms"); d >= 0.0) {
    report.detected_at = d;
  }
  if (const double c = m.gauge_value("pm_converged_at_ms"); c >= 0.0) {
    report.converged_at = c;
  }
  report.messages_sent = m.counter_value("pm_messages_sent_total");
  report.messages_by_kind = m.counters_by_label("pm_messages_total", "kind");
  report.recovery_waves = m.counter_value("pm_recovery_waves_total");
  report.flows_with_entries =
      static_cast<std::size_t>(m.gauge_value("pm_flows_with_entries"));
  report.all_flows_deliverable =
      m.gauge_value("pm_all_flows_deliverable") != 0.0;
  report.adopted_switches =
      static_cast<std::size_t>(m.gauge_value("pm_adopted_switches"));
  report.retransmissions = m.counter_value("pm_retransmissions_total");
  report.duplicates_suppressed =
      m.counter_value("pm_duplicates_suppressed_total");
  report.spurious_detections =
      m.counter_value("pm_spurious_detections_total");
  report.degraded_flows =
      static_cast<std::size_t>(m.gauge_value("pm_degraded_flows"));
  report.degraded_switches =
      static_cast<std::size_t>(m.gauge_value("pm_degraded_switches"));
  report.injected_drops = m.counter_value("pm_injected_drops_total");
  report.injected_duplicates =
      m.counter_value("pm_injected_duplicates_total");
  report.reordered_messages =
      m.counter_value("pm_reordered_messages_total");
  report.partition_drops = m.counter_value("pm_partition_drops_total");
  report.stale_discarded = m.counter_value("pm_stale_discarded_total");
  report.rollback_removals =
      m.counter_value("pm_rollback_removals_total");
  report.waves_aborted = m.counter_value("pm_waves_aborted_total");
  report.coordinator_failovers =
      m.counter_value("pm_coordinator_failovers_total");
  report.audit_violations =
      static_cast<std::size_t>(m.gauge_value("pm_audit_violations"));
  report.audit_clean = m.gauge_value("pm_audit_clean") != 0.0;
  return report;
}

}  // namespace pm::ctrl
