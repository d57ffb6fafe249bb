#include "core/retroflow.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

namespace pm::core {

namespace {
using sdwan::ControllerId;
using sdwan::SwitchId;
}  // namespace

RecoveryPlan run_retroflow(const sdwan::FailureState& state,
                           RetroFlowOptions options) {
  const auto start = std::chrono::steady_clock::now();
  RecoveryPlan plan;
  plan.algorithm = "RetroFlow";
  plan.whole_switch_control = true;

  std::vector<double> rest(
      static_cast<std::size_t>(state.network().controller_count()), 0.0);
  for (ControllerId j : state.active_controllers()) {
    rest[static_cast<std::size_t>(j)] = state.rest_capacity(j);
  }

  // Switches in ascending id (deterministic); each may go only to its
  // nearest `controller_candidates` controllers. A switch's opportunities
  // ascend by flow, so the plan comes out in (switch, flow) order.
  const int candidates = std::max(1, options.controller_candidates);
  for (SwitchId s : state.offline_switches()) {
    const auto flows = state.opportunities_at(s);
    if (flows.empty()) continue;  // nothing to recover there
    const double cost = static_cast<double>(state.gamma(s));
    ControllerId chosen = -1;
    const auto& by_delay = state.controllers_by_delay(s);
    const int tries =
        std::min<int>(candidates, static_cast<int>(by_delay.size()));
    for (int k = 0; k < tries; ++k) {
      const ControllerId j = by_delay[static_cast<std::size_t>(k)];
      if (rest[static_cast<std::size_t>(j)] >= cost) {
        chosen = j;
        break;
      }
    }
    if (chosen < 0) continue;  // stays in legacy mode — unrecovered
    rest[static_cast<std::size_t>(chosen)] -= cost;
    plan.mapping[s] = chosen;
    // Whole-switch SDN mode: every programmable flow there is recovered.
    for (const auto& opp : flows) {
      plan.sdn_assignments.emplace_back(s, opp.flow);
    }
  }

  prune_unused_mappings(plan);
  plan.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return plan;
}

}  // namespace pm::core
