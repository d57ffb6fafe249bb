#include "core/naive.hpp"

#include <chrono>

namespace pm::core {

RecoveryPlan run_naive_nearest(const sdwan::FailureState& state) {
  const auto start = std::chrono::steady_clock::now();
  RecoveryPlan plan;
  plan.algorithm = "NaiveNearest";
  plan.whole_switch_control = true;

  for (sdwan::SwitchId s : state.offline_switches()) {
    plan.mapping[s] = state.nearest_active_controller(s);
  }
  // Every opportunity, read switch-major: already in (switch, flow) order.
  plan.sdn_assignments.reserve(state.opportunity_count());
  for (sdwan::SwitchId s : state.offline_switches()) {
    for (const auto& opp : state.opportunities_at(s)) {
      plan.sdn_assignments.emplace_back(s, opp.flow);
    }
  }
  // Note: no prune — the naive takeover adopts every offline switch,
  // including ones with nothing recoverable (that is the point).
  plan.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return plan;
}

}  // namespace pm::core
