#include "ctrl/audit.hpp"

#include <algorithm>
#include <utility>

#include "core/recovery_plan.hpp"
#include "sdwan/failure.hpp"

namespace pm::ctrl {

namespace {

std::string sw_flow(sdwan::SwitchId sw, sdwan::FlowId flow) {
  return "switch " + std::to_string(sw) + ", flow " +
         std::to_string(flow);
}

}  // namespace

std::map<std::string, std::size_t> AuditReport::by_invariant() const {
  std::map<std::string, std::size_t> counts;
  for (const auto& v : violations) ++counts[v.invariant];
  return counts;
}

AuditReport audit_recovery(const sdwan::Network& net,
                           const sdwan::Dataplane& dataplane,
                           const std::vector<const SwitchAgent*>& agents,
                           const std::vector<bool>& controller_alive,
                           const SharedRecoveryState& shared,
                           double overload_tolerance) {
  AuditReport report;
  const auto flag = [&report](std::string invariant, std::string detail) {
    report.violations.push_back(
        {std::move(invariant), std::move(detail)});
  };

  // 1. No switch mastered by a failed controller. (An orphaned switch,
  // master == -1, is legitimate: it forwards legacy.)
  for (const SwitchAgent* agent : agents) {
    ++report.switches_checked;
    const sdwan::ControllerId m = agent->master();
    if (m < 0) continue;
    if (m >= static_cast<sdwan::ControllerId>(controller_alive.size()) ||
        !controller_alive[static_cast<std::size_t>(m)]) {
      flag("orphaned-master",
           "switch " + std::to_string(agent->id()) +
               " mastered by failed controller " + std::to_string(m));
    }
  }

  if (!shared.committed_plan) {
    // No wave has committed: entries should not exist at all.
    for (const SwitchAgent* agent : agents) {
      for (const auto& [match, epoch] : agent->entry_epochs()) {
        ++report.entries_checked;
        flag("unplanned-entry",
             "switch " + std::to_string(agent->id()) +
                 " holds an entry but no wave ever committed");
      }
    }
    return report;
  }
  const core::RecoveryPlan& plan = *shared.committed_plan;

  // 2. Epoch consistency: entries tagged with the committed epoch only,
  // and no flow mixing epochs across switches.
  std::vector<std::pair<sdwan::FlowId, std::uint64_t>> flow_epochs;
  for (const SwitchAgent* agent : agents) {
    for (const auto& [match, epoch] : agent->entry_epochs()) {
      ++report.entries_checked;
      if (epoch != shared.committed_epoch) {
        flag("stale-epoch",
             "switch " + std::to_string(agent->id()) + " entry (" +
                 std::to_string(match.first) + "->" +
                 std::to_string(match.second) + ") from epoch " +
                 std::to_string(epoch) + ", committed epoch is " +
                 std::to_string(shared.committed_epoch));
      }
      const sdwan::FlowId flow = net.flow_by_match(match.first, match.second);
      if (flow >= 0) flow_epochs.emplace_back(flow, epoch);
    }
  }
  // Distinct (flow, epoch) pairs in flow order; a flow with several is
  // mixed.
  std::sort(flow_epochs.begin(), flow_epochs.end());
  flow_epochs.erase(std::unique(flow_epochs.begin(), flow_epochs.end()),
                    flow_epochs.end());
  for (std::size_t i = 0, j = 0; i < flow_epochs.size(); i = j) {
    while (j < flow_epochs.size() &&
           flow_epochs[j].first == flow_epochs[i].first) {
      ++j;
    }
    if (j - i > 1) {
      flag("mixed-epoch", "flow " + std::to_string(flow_epochs[i].first) +
                              " has entries from " + std::to_string(j - i) +
                              " epochs");
    }
  }

  // 3. Capacity: committed plan's adopted load on top of normal load.
  sdwan::FailureScenario scenario;
  for (std::size_t j = 0; j < controller_alive.size(); ++j) {
    if (!controller_alive[j]) {
      scenario.failed.push_back(static_cast<sdwan::ControllerId>(j));
    }
  }
  const sdwan::FailureState state(net, scenario);
  const auto loads = core::controller_loads(state, plan);
  for (const sdwan::ControllerId j : state.active_controllers()) {
    const double adopted = loads.contains(j) ? loads.at(j) : 0.0;
    const double total = net.normal_load(j) + adopted;
    const double capacity = net.controller(j).capacity;
    if (total > capacity * (1.0 + overload_tolerance)) {
      flag("over-capacity",
           "controller " + std::to_string(j) + " at " +
               std::to_string(total) + " / " + std::to_string(capacity));
    }
  }

  // 4a. Every committed assignment of a non-degraded flow is installed
  // with the flow's path successor as next hop.
  for (const auto& [sw, flow] : plan.sdn_assignments) {
    if (shared.degraded_flows.contains(flow) ||
        shared.degraded_switches.contains(sw)) {
      continue;
    }
    const auto& f = net.flow(flow);
    sdwan::SwitchId next_hop = -1;
    for (std::size_t i = 0; i + 1 < f.path.size(); ++i) {
      if (f.path[i] == sw) {
        next_hop = f.path[i + 1];
        break;
      }
    }
    if (next_hop < 0) continue;  // no entry is ever sent for these
    ++report.assignments_checked;
    const SwitchAgent* agent = agents.at(static_cast<std::size_t>(sw));
    if (!agent->entry_epochs().contains({f.src, f.dst})) {
      flag("missing-entry", sw_flow(sw, flow) + " committed but absent");
      continue;
    }
    const auto result = dataplane.at(sw).lookup({f.src, f.dst});
    if (!result.matched_flow_table || !result.next_hop.has_value() ||
        *result.next_hop != next_hop) {
      flag("wrong-next-hop",
           sw_flow(sw, flow) + " forwards off the committed path");
    }
  }

  // 4b. The committed mapping is live in the agents.
  for (const auto& [sw, controller] : plan.mapping) {
    if (shared.degraded_switches.contains(sw)) continue;
    const SwitchAgent* agent = agents.at(static_cast<std::size_t>(sw));
    if (agent->master() != controller) {
      flag("wrong-master",
           "switch " + std::to_string(sw) + " mastered by " +
               std::to_string(agent->master()) + ", committed plan says " +
               std::to_string(controller));
    }
  }

  // 4c. No entry outside the committed plan. (Cleanup adoptions may
  // master extra switches — that is legal; extra ENTRIES are not.)
  for (const SwitchAgent* agent : agents) {
    for (const auto& [match, epoch] : agent->entry_epochs()) {
      const sdwan::FlowId flow = net.flow_by_match(match.first, match.second);
      if (flow < 0 || !plan.has_assignment(agent->id(), flow)) {
        flag("unplanned-entry",
             "switch " + std::to_string(agent->id()) + " entry (" +
                 std::to_string(match.first) + "->" +
                 std::to_string(match.second) +
                 ") is not in the committed plan");
      }
    }
  }
  return report;
}

}  // namespace pm::ctrl
