#include "core/pg.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

namespace pm::core {

namespace {
using sdwan::ControllerId;
using sdwan::FlowId;
using sdwan::SwitchId;
}  // namespace

RecoveryPlan run_pg(const sdwan::FailureState& state) {
  const auto start = std::chrono::steady_clock::now();
  RecoveryPlan plan;
  plan.algorithm = "PG";
  plan.middle_layer_ms = kFlowVisorLatencyMs * kMessagesPerTransaction;

  // The middle layer makes every (switch, flow) pair independently
  // assignable; track which controller serves each pair so capacity and
  // overhead are attributable. A switch may be sliced among several
  // controllers, so plan.mapping cannot express PG's state — we pick, for
  // reporting, the controller that serves the most pairs of the switch.
  //
  // Dense working state: residual capacity by controller id, h by
  // position in recoverable_flows(), and per opportunity (indexed like
  // FailureState's flat array) the controller that took it, or -1.
  const auto& flows = state.recoverable_flows();
  const auto controller_count =
      static_cast<std::size_t>(state.network().controller_count());
  std::vector<double> rest(controller_count, 0.0);
  for (ControllerId j : state.active_controllers()) {
    rest[static_cast<std::size_t>(j)] = state.rest_capacity(j);
  }
  std::vector<std::int64_t> h(flows.size(), 0);
  std::vector<ControllerId> taken_by(state.opportunity_count(), -1);

  auto nearest_with_capacity = [&](SwitchId s) -> ControllerId {
    for (ControllerId j : state.controllers_by_delay(s)) {
      if (rest[static_cast<std::size_t>(j)] >= 1.0) return j;
    }
    return -1;
  };

  // Phase 1 — balance: raise the minimum programmability level by level,
  // giving each least-programmability flow one more SDN switch per round.
  bool progress = !flows.empty();
  while (progress) {
    progress = false;
    const std::int64_t sigma = *std::min_element(h.begin(), h.end());
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (h[f] != sigma) continue;
      const FlowId l = flows[f];
      const std::size_t base = state.opportunity_offset(l);
      const auto opps = state.opportunities(l);
      // Best untaken opportunity: maximum programmability gain; among
      // equal gains the first in path order wins. Every candidate is
      // served by its switch's nearest controller with a unit of
      // capacity left, whatever that controller's delay.
      std::size_t best = opps.size();
      ControllerId best_ctrl = -1;
      for (std::size_t k = 0; k < opps.size(); ++k) {
        if (taken_by[base + k] >= 0) continue;
        const ControllerId j = nearest_with_capacity(opps[k].sw);
        if (j < 0) continue;
        if (best == opps.size() || opps[k].p > opps[best].p) {
          best = k;
          best_ctrl = j;
        }
      }
      if (best == opps.size()) continue;
      rest[static_cast<std::size_t>(best_ctrl)] -= 1.0;
      h[f] += opps[best].p;
      taken_by[base + best] = best_ctrl;
      progress = true;
    }
  }

  // Phase 2 — utilize: spend leftover capacity on any remaining pairs.
  for (const FlowId l : flows) {
    const std::size_t base = state.opportunity_offset(l);
    const auto opps = state.opportunities(l);
    for (std::size_t k = 0; k < opps.size(); ++k) {
      if (taken_by[base + k] >= 0) continue;
      const ControllerId j = nearest_with_capacity(opps[k].sw);
      if (j < 0) continue;
      rest[static_cast<std::size_t>(j)] -= 1.0;
      taken_by[base + k] = j;
    }
  }

  // Record the exact per-pair controllers (capacity/overhead accounting
  // uses these), plus a majority-vote mapping per switch for display
  // (lowest controller id on ties). Walking the switch-major view emits
  // the pairs in (switch, flow) order.
  std::vector<int> votes(controller_count);
  for (const SwitchId s : state.offline_switches()) {
    std::fill(votes.begin(), votes.end(), 0);
    bool used = false;
    for (const auto& opp : state.opportunities_at(s)) {
      const ControllerId j = taken_by[opp.index];
      if (j < 0) continue;
      plan.sdn_assignments.push_back({s, opp.flow, j});
      ++votes[static_cast<std::size_t>(j)];
      used = true;
    }
    if (!used) continue;
    plan.mapping[s] = static_cast<ControllerId>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
  }

  prune_unused_mappings(plan);
  plan.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return plan;
}

}  // namespace pm::core
