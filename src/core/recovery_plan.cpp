#include "core/recovery_plan.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>

namespace pm::core {

namespace {

bool strictly_ascending(const std::vector<Assignment>& pairs) {
  return std::adjacent_find(pairs.begin(), pairs.end(),
                            [](const Assignment& a, const Assignment& b) {
                              return !(a < b);
                            }) == pairs.end();
}

}  // namespace

sdwan::ControllerId RecoveryPlan::controller_of(sdwan::SwitchId i) const {
  const auto it = mapping.find(i);
  return it == mapping.end() ? -1 : it->second;
}

bool RecoveryPlan::has_assignment(sdwan::SwitchId i, sdwan::FlowId l) const {
  return std::binary_search(sdn_assignments.begin(), sdn_assignments.end(),
                            Assignment{i, l});
}

sdwan::ControllerId RecoveryPlan::controller_of_assignment(
    std::size_t k) const {
  if (k < assignment_controller.size() && assignment_controller[k] >= 0) {
    return assignment_controller[k];
  }
  return controller_of(sdn_assignments[k].first);
}

sdwan::ControllerId RecoveryPlan::controller_of_assignment(
    sdwan::SwitchId i, sdwan::FlowId l) const {
  const auto it = std::lower_bound(sdn_assignments.begin(),
                                   sdn_assignments.end(), Assignment{i, l});
  if (it != sdn_assignments.end() && *it == Assignment{i, l}) {
    return controller_of_assignment(
        static_cast<std::size_t>(it - sdn_assignments.begin()));
  }
  return controller_of(i);
}

void sort_assignments(RecoveryPlan& plan) {
  auto& pairs = plan.sdn_assignments;
  auto& controllers = plan.assignment_controller;
  if (strictly_ascending(pairs)) return;
  if (controllers.empty()) {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    return;
  }
  if (controllers.size() != pairs.size()) {
    throw std::invalid_argument(
        "assignment_controller is not aligned with sdn_assignments");
  }
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pairs[a] < pairs[b];
                   });
  std::vector<Assignment> sorted;
  std::vector<sdwan::ControllerId> aligned;
  sorted.reserve(pairs.size());
  aligned.reserve(pairs.size());
  for (const std::size_t k : order) {
    if (!sorted.empty() && sorted.back() == pairs[k]) {
      if (controllers[k] >= 0) aligned.back() = controllers[k];
      continue;
    }
    sorted.push_back(pairs[k]);
    aligned.push_back(controllers[k]);
  }
  pairs = std::move(sorted);
  controllers = std::move(aligned);
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
    for (std::size_t k = 0; k < plan.sdn_assignments.size(); ++k) {
      const sdwan::ControllerId j = plan.controller_of_assignment(k);
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
  if (!plan.assignment_controller.empty() &&
      plan.assignment_controller.size() != plan.sdn_assignments.size()) {
    problems.push_back(
        "assignment_controller has " +
        std::to_string(plan.assignment_controller.size()) + " entries for " +
        std::to_string(plan.sdn_assignments.size()) + " assignments");
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

std::vector<std::int64_t> flow_programmability(
    const sdwan::FailureState& state, const RecoveryPlan& plan) {
  const sdwan::Network& net = state.network();
  std::vector<std::int64_t> h(static_cast<std::size_t>(net.flow_count()), 0);
  for (const auto& [sw, flow] : plan.sdn_assignments) {
    h[static_cast<std::size_t>(flow)] += net.diversity(flow, sw);
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
    if (a == a_end || (b != b_end && *b < *a)) {
      ++churn.entries_removed;
      ++b;
    } else if (b == b_end || *a < *b) {
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
  const auto& pairs = plan.sdn_assignments;
  auto cursor = pairs.begin();
  std::erase_if(plan.mapping, [&](const auto& kv) {
    cursor = std::lower_bound(
        cursor, pairs.end(),
        Assignment{kv.first, std::numeric_limits<sdwan::FlowId>::min()});
    return cursor == pairs.end() || cursor->first != kv.first;
  });
}

}  // namespace pm::core
