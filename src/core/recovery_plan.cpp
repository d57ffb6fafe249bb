#include "core/recovery_plan.hpp"

#include <algorithm>

namespace pm::core {

sdwan::ControllerId RecoveryPlan::controller_of(sdwan::SwitchId i) const {
  const auto it = mapping.find(i);
  return it == mapping.end() ? -1 : it->second;
}

sdwan::ControllerId RecoveryPlan::controller_of_assignment(
    sdwan::SwitchId i, sdwan::FlowId l) const {
  const auto it = assignment_controller.find({i, l});
  if (it != assignment_controller.end()) return it->second;
  return controller_of(i);
}

std::map<sdwan::ControllerId, double> controller_loads(
    const sdwan::FailureState& state, const RecoveryPlan& plan) {
  std::map<sdwan::ControllerId, double> loads;
  for (sdwan::ControllerId j : state.active_controllers()) loads[j] = 0.0;
  if (plan.whole_switch_control) {
    for (const auto& [sw, ctrl] : plan.mapping) {
      loads[ctrl] += static_cast<double>(state.gamma(sw));
    }
  } else {
    for (const auto& [sw, flow] : plan.sdn_assignments) {
      const sdwan::ControllerId j = plan.controller_of_assignment(sw, flow);
      if (j >= 0) loads[j] += 1.0;
    }
  }
  return loads;
}

std::vector<std::string> validate_plan(const sdwan::FailureState& state,
                                       const RecoveryPlan& plan) {
  std::vector<std::string> problems;
  const sdwan::Network& net = state.network();

  for (const auto& [sw, ctrl] : plan.mapping) {
    if (!state.is_offline_switch(sw)) {
      problems.push_back("switch " + std::to_string(sw) +
                         " is mapped but not offline");
    }
    if (!state.is_active_controller(ctrl)) {
      problems.push_back("switch " + std::to_string(sw) +
                         " mapped to non-active controller " +
                         std::to_string(ctrl));
    }
  }

  for (const auto& [sw, flow] : plan.sdn_assignments) {
    if (!plan.mapping.contains(sw)) {
      problems.push_back("assignment (" + std::to_string(sw) + ", " +
                         std::to_string(flow) + ") at unmapped switch");
      continue;
    }
    if (!net.beta(flow, sw)) {
      problems.push_back("assignment (" + std::to_string(sw) + ", " +
                         std::to_string(flow) + ") where beta = 0");
    }
  }

  for (const auto& [j, load] : controller_loads(state, plan)) {
    if (load > state.rest_capacity(j) + 1e-9) {
      problems.push_back("controller " + net.controller(j).name +
                         " overloaded: " + std::to_string(load) + " > " +
                         std::to_string(state.rest_capacity(j)));
    }
  }
  return problems;
}

std::map<sdwan::FlowId, std::int64_t> flow_programmability(
    const sdwan::FailureState& state, const RecoveryPlan& plan) {
  std::map<sdwan::FlowId, std::int64_t> h;
  const sdwan::Network& net = state.network();
  for (const auto& [sw, flow] : plan.sdn_assignments) {
    h[flow] += net.diversity(flow, sw);
  }
  return h;
}

PlanChurn plan_churn(const RecoveryPlan& before, const RecoveryPlan& after) {
  PlanChurn churn;
  std::set<sdwan::SwitchId> switches;
  for (const auto& [sw, j] : before.mapping) {
    (void)j;
    switches.insert(sw);
  }
  for (const auto& [sw, j] : after.mapping) {
    (void)j;
    switches.insert(sw);
  }
  for (sdwan::SwitchId sw : switches) {
    if (before.controller_of(sw) != after.controller_of(sw)) {
      ++churn.mappings_changed;
    }
  }
  for (const auto& pair : after.sdn_assignments) {
    if (!before.sdn_assignments.contains(pair)) ++churn.entries_added;
  }
  for (const auto& pair : before.sdn_assignments) {
    if (!after.sdn_assignments.contains(pair)) ++churn.entries_removed;
  }
  return churn;
}

void prune_unused_mappings(RecoveryPlan& plan) {
  std::set<sdwan::SwitchId> used;
  for (const auto& [sw, flow] : plan.sdn_assignments) {
    (void)flow;
    used.insert(sw);
  }
  std::erase_if(plan.mapping,
                [&](const auto& kv) { return !used.contains(kv.first); });
}

}  // namespace pm::core
