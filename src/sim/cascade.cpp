#include "sim/cascade.hpp"

#include <algorithm>
#include <set>

namespace pm::sim {

CascadeResult simulate_cascade(const sdwan::Network& net,
                               std::vector<sdwan::ControllerId> initial,
                               const RecoveryPolicy& policy,
                               double overload_tolerance) {
  CascadeResult result;
  std::set<sdwan::ControllerId> failed(initial.begin(), initial.end());
  std::vector<sdwan::ControllerId> newly = std::move(initial);
  std::sort(newly.begin(), newly.end());

  while (!newly.empty()) {
    CascadeRound round;
    round.newly_failed = newly;
    newly.clear();

    if (failed.size() >= static_cast<std::size_t>(net.controller_count())) {
      result.collapsed = true;
      result.rounds.push_back(std::move(round));
      break;
    }

    sdwan::FailureScenario scenario;
    scenario.failed.assign(failed.begin(), failed.end());
    const sdwan::FailureState state(net, scenario);
    round.offline_switches = state.offline_switches().size();

    const core::RecoveryPlan plan = policy(state);
    result.round_plans.push_back(plan);
    const auto adopted = core::controller_loads(state, plan);
    for (sdwan::ControllerId j : state.active_controllers()) {
      const double capacity = net.controller(j).capacity;
      const double total = net.normal_load(j) +
                           (adopted.contains(j) ? adopted.at(j) : 0.0);
      const double ratio = capacity <= 0.0 ? 1e9 : total / capacity;
      round.max_load_ratio = std::max(round.max_load_ratio, ratio);
      if (ratio > 1.0 + overload_tolerance) {
        newly.push_back(j);
        failed.insert(j);
      }
    }
    if (newly.empty()) result.final_plan = plan;
    result.rounds.push_back(std::move(round));
  }

  result.final_failed.assign(failed.begin(), failed.end());
  return result;
}

}  // namespace pm::sim
