#include "core/fmssm.hpp"

#include <algorithm>
#include <string>

namespace pm::core {

namespace {
using sdwan::ControllerId;
using sdwan::FlowId;
using sdwan::SwitchId;

std::string id(SwitchId i) { return std::to_string(i); }
}  // namespace

FmssmProblem build_fmssm(const sdwan::FailureState& state,
                         FmssmOptions options) {
  FmssmProblem p;
  const sdwan::Network& net = state.network();

  // Automatic two-stage-equivalent lambda.
  if (options.lambda <= 0.0) {
    double total_max = 0.0;
    for (FlowId l : state.recoverable_flows()) {
      for (const auto& opp : state.opportunities(l)) {
        total_max += static_cast<double>(opp.p);
      }
    }
    options.lambda = 1.0 / (1.0 + total_max);
  }
  p.lambda = options.lambda;

  p.model.set_objective_sense(milp::Objective::kMaximize);
  // r is bounded by the least flow's best achievable programmability —
  // a valid tightening, and it keeps the model bounded when no flow is
  // recoverable at all (r is then forced to 0).
  double r_cap = 0.0;
  bool first_flow = true;
  for (FlowId l : state.recoverable_flows()) {
    double flow_max = 0.0;
    for (const auto& opp : state.opportunities(l)) {
      flow_max += static_cast<double>(opp.p);
    }
    r_cap = first_flow ? flow_max : std::min(r_cap, flow_max);
    first_flow = false;
  }
  p.r_var = p.model.add_continuous("r", 0.0, r_cap, 1.0);

  // x_ij.
  for (SwitchId i : state.offline_switches()) {
    for (ControllerId j : state.active_controllers()) {
      p.x_var[{i, j}] = p.model.add_binary(
          "x_" + id(i) + "_" + id(j), 0.0);
    }
  }

  // w_ij^l for beta = 1 pairs, with objective lambda * p.
  for (FlowId l : state.recoverable_flows()) {
    for (const auto& opp : state.opportunities(l)) {
      for (ControllerId j : state.active_controllers()) {
        p.w_var[{opp.sw, j, l}] = p.model.add_binary(
            "w_" + id(opp.sw) + "_" + id(j) + "_" + id(l),
            options.lambda * static_cast<double>(opp.p));
      }
    }
  }

  // (2): each switch to at most one controller.
  for (SwitchId i : state.offline_switches()) {
    std::vector<milp::Term> terms;
    for (ControllerId j : state.active_controllers()) {
      terms.push_back({p.x_var.at({i, j}), 1.0});
    }
    p.model.add_constraint("map_" + id(i), std::move(terms),
                           milp::Sense::kLe, 1.0);
  }

  // (9') aggregated activation: sum_l w_ij^l - B_i x_ij <= 0.
  for (SwitchId i : state.offline_switches()) {
    const auto flows = state.opportunities_at(i);
    if (flows.empty()) continue;
    for (ControllerId j : state.active_controllers()) {
      std::vector<milp::Term> terms;
      for (const auto& opp : flows) {
        terms.push_back({p.w_var.at({i, j, opp.flow}), 1.0});
      }
      terms.push_back(
          {p.x_var.at({i, j}), -static_cast<double>(flows.size())});
      p.model.add_constraint("act_" + id(i) + "_" + id(j),
                             std::move(terms), milp::Sense::kLe, 0.0);
    }
  }

  // pair: sum_j w_ij^l <= 1.
  for (SwitchId i : state.offline_switches()) {
    for (const auto& opp : state.opportunities_at(i)) {
      std::vector<milp::Term> terms;
      for (ControllerId j : state.active_controllers()) {
        terms.push_back({p.w_var.at({i, j, opp.flow}), 1.0});
      }
      p.model.add_constraint("pair_" + id(i) + "_" + id(opp.flow),
                             std::move(terms), milp::Sense::kLe, 1.0);
    }
  }

  // (12): controller capacity.
  for (ControllerId j : state.active_controllers()) {
    std::vector<milp::Term> terms;
    for (const auto& [key, var] : p.w_var) {
      if (std::get<1>(key) == j) terms.push_back({var, 1.0});
    }
    p.model.add_constraint("cap_" + net.controller(j).name,
                           std::move(terms), milp::Sense::kLe,
                           state.rest_capacity(j));
  }

  // (13): per-flow programmability >= r.
  for (FlowId l : state.recoverable_flows()) {
    std::vector<milp::Term> terms;
    for (const auto& opp : state.opportunities(l)) {
      for (ControllerId j : state.active_controllers()) {
        terms.push_back(
            {p.w_var.at({opp.sw, j, l}), static_cast<double>(opp.p)});
      }
    }
    terms.push_back({p.r_var, -1.0});
    p.model.add_constraint("pro_" + id(l), std::move(terms),
                           milp::Sense::kGe, 0.0);
  }

  // (14): delay budget.
  if (options.delay_constraint) {
    std::vector<milp::Term> terms;
    for (const auto& [key, var] : p.w_var) {
      const auto& [i, j, l] = key;
      (void)l;
      terms.push_back({var, net.delay_ms(i, j)});
    }
    p.model.add_constraint("delay", std::move(terms), milp::Sense::kLe,
                           state.ideal_total_delay());
  }

  return p;
}

RecoveryPlan FmssmProblem::decode(const std::vector<double>& solution) const {
  RecoveryPlan plan;
  plan.algorithm = "Optimal";
  for (const auto& [key, var] : x_var) {
    if (solution[static_cast<std::size_t>(var)] > 0.5) {
      plan.mapping[key.first] = key.second;
    }
  }
  // w_var iterates in (switch, controller, flow) order, so the pairs
  // need sorting.
  for (const auto& [key, var] : w_var) {
    if (solution[static_cast<std::size_t>(var)] > 0.5) {
      plan.sdn_assignments.emplace_back(std::get<0>(key), std::get<2>(key));
    }
  }
  sort_assignments(plan);
  prune_unused_mappings(plan);
  return plan;
}

std::vector<double> FmssmProblem::encode(const sdwan::FailureState& state,
                                         const RecoveryPlan& plan) const {
  std::vector<double> x(static_cast<std::size_t>(model.variable_count()),
                        0.0);
  for (const auto& [sw, ctrl] : plan.mapping) {
    const auto it = x_var.find({sw, ctrl});
    if (it != x_var.end()) x[static_cast<std::size_t>(it->second)] = 1.0;
  }
  std::int64_t min_h = 0;
  const auto h = flow_programmability(state, plan);
  bool first = true;
  for (FlowId l : state.recoverable_flows()) {
    const std::int64_t hl = h[static_cast<std::size_t>(l)];
    min_h = first ? hl : std::min(min_h, hl);
    first = false;
  }
  x[static_cast<std::size_t>(r_var)] = static_cast<double>(min_h);
  for (std::size_t k = 0; k < plan.sdn_assignments.size(); ++k) {
    const auto [sw, flow] = plan.sdn_assignments[k];
    const ControllerId j = plan.controller_of_assignment(k);
    const auto it = w_var.find({sw, j, flow});
    if (it != w_var.end()) x[static_cast<std::size_t>(it->second)] = 1.0;
  }
  return x;
}

}  // namespace pm::core
