#include "core/recovery_plan.hpp"

#include <algorithm>
#include <limits>
#include <set>

namespace pm::core {

namespace {

/// The order of sdn_assignments; the controller takes no part.
bool switch_flow_less(const Assignment& a, const Assignment& b) {
  return a.sw != b.sw ? a.sw < b.sw : a.flow < b.flow;
}

bool strictly_ascending(const std::vector<Assignment>& y) {
  return std::adjacent_find(y.begin(), y.end(),
                            [](const Assignment& a, const Assignment& b) {
                              return !switch_flow_less(a, b);
                            }) == y.end();
}

}  // namespace

sdwan::ControllerId RecoveryPlan::controller_of(sdwan::SwitchId i) const {
  const auto it = mapping.find(i);
  return it == mapping.end() ? -1 : it->second;
}

bool RecoveryPlan::has_assignment(sdwan::SwitchId i, sdwan::FlowId l) const {
  return std::binary_search(sdn_assignments.begin(), sdn_assignments.end(),
                            Assignment{i, l}, switch_flow_less);
}

sdwan::ControllerId RecoveryPlan::controller_of(const Assignment& a) const {
  return a.controller >= 0 ? a.controller : controller_of(a.sw);
}

void sort_assignments(RecoveryPlan& plan) {
  auto& y = plan.sdn_assignments;
  std::stable_sort(y.begin(), y.end(), switch_flow_less);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < y.size(); ++k) {
    if (kept > 0 && !switch_flow_less(y[kept - 1], y[k])) {
      if (y[k].controller >= 0) y[kept - 1].controller = y[k].controller;
    } else {
      y[kept++] = y[k];
    }
  }
  y.resize(kept);
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
    for (const Assignment& a : plan.sdn_assignments) {
      const sdwan::ControllerId j = plan.controller_of(a);
      if (j >= 0) loads[j] += 1.0;
    }
  }
  return loads;
}

std::vector<std::string> validate_plan(const sdwan::FailureState& state,
                                       const RecoveryPlan& plan) {
  std::vector<std::string> problems;
  const sdwan::Network& net = state.network();

  if (!strictly_ascending(plan.sdn_assignments)) {
    problems.push_back("sdn_assignments not sorted and duplicate-free");
  }

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

  for (const Assignment& a : plan.sdn_assignments) {
    if (!plan.mapping.contains(a.sw)) {
      problems.push_back("assignment (" + std::to_string(a.sw) + ", " +
                         std::to_string(a.flow) + ") at unmapped switch");
      continue;
    }
    if (!net.beta(a.flow, a.sw)) {
      problems.push_back("assignment (" + std::to_string(a.sw) + ", " +
                         std::to_string(a.flow) + ") where beta = 0");
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

std::vector<std::int64_t> flow_programmability(
    const sdwan::FailureState& state, const RecoveryPlan& plan) {
  const sdwan::Network& net = state.network();
  std::vector<std::int64_t> h(static_cast<std::size_t>(net.flow_count()), 0);
  for (const Assignment& a : plan.sdn_assignments) {
    h[static_cast<std::size_t>(a.flow)] += net.diversity(a.flow, a.sw);
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
  // Both assignment lists ascend, so one merge walk counts both sides.
  auto b = before.sdn_assignments.begin();
  auto a = after.sdn_assignments.begin();
  const auto b_end = before.sdn_assignments.end();
  const auto a_end = after.sdn_assignments.end();
  while (b != b_end || a != a_end) {
    if (a == a_end || (b != b_end && switch_flow_less(*b, *a))) {
      ++churn.entries_removed;
      ++b;
    } else if (b == b_end || switch_flow_less(*a, *b)) {
      ++churn.entries_added;
      ++a;
    } else {
      ++a;
      ++b;
    }
  }
  return churn;
}

void prune_unused_mappings(RecoveryPlan& plan) {
  // mapping keys ascend, so one cursor over the sorted assignments
  // answers every "is this switch used" query.
  const auto& y = plan.sdn_assignments;
  auto cursor = y.begin();
  std::erase_if(plan.mapping, [&](const auto& kv) {
    cursor = std::lower_bound(
        cursor, y.end(),
        Assignment{kv.first, std::numeric_limits<sdwan::FlowId>::min()},
        switch_flow_less);
    return cursor == y.end() || cursor->sw != kv.first;
  });
}

}  // namespace pm::core
