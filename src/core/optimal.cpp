#include "core/optimal.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/pm_algorithm.hpp"

namespace pm::core {

namespace {

/// Makes PM's plan satisfy the delay budget of Eq. (14) by dropping the
/// most expensive assignments first — preferring flows whose
/// programmability is well above the minimum, so the balanced level r
/// survives the trim whenever possible. The result is a feasible (if
/// conservative) incumbent for the branch-and-bound.
RecoveryPlan trim_to_delay_budget(const sdwan::FailureState& state,
                                  RecoveryPlan plan) {
  const sdwan::Network& net = state.network();
  const double budget = state.ideal_total_delay();
  auto& y = plan.sdn_assignments;
  const std::size_t n = y.size();
  // Delay and programmability of each assignment, by position.
  std::vector<double> delay(n);
  std::vector<std::int64_t> gain(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    delay[k] = net.delay_ms(y[k].sw, plan.controller_of(y[k]));
    gain[k] = net.diversity(y[k].flow, y[k].sw);
    total += delay[k];
  }
  if (total <= budget) return plan;

  auto h = flow_programmability(state, plan);
  std::int64_t level = std::numeric_limits<std::int64_t>::max();
  for (sdwan::FlowId l : state.recoverable_flows()) {
    level = std::min(level, h[static_cast<std::size_t>(l)]);
  }

  // Drop the most expensive assignment whose removal keeps its flow at or
  // above the balance level; when none qualifies, lower the bar to "keeps
  // the flow recovered", and only then sacrifice flows outright. Ties go
  // to the earliest assignment.
  std::vector<char> dropped(n, 0);
  std::size_t remaining = n;
  while (total > budget && remaining > 0) {
    auto qualifies = [&](std::size_t k, std::int64_t floor) {
      return h[static_cast<std::size_t>(y[k].flow)] - gain[k] >= floor;
    };
    std::size_t pick = n;
    for (const std::int64_t floor : {level, std::int64_t{1},
                                     std::int64_t{0}}) {
      double best_delay = -1.0;
      for (std::size_t k = 0; k < n; ++k) {
        if (!dropped[k] && qualifies(k, floor) && delay[k] > best_delay) {
          best_delay = delay[k];
          pick = k;
        }
      }
      if (pick < n) break;
    }
    if (pick >= n) break;
    dropped[pick] = 1;
    --remaining;
    h[static_cast<std::size_t>(y[pick].flow)] -= gain[pick];
    total -= delay[pick];
  }

  // One compaction pass removes every dropped entry.
  std::size_t kept = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (!dropped[k]) y[kept++] = y[k];
  }
  y.resize(kept);
  prune_unused_mappings(plan);
  return plan;
}

}  // namespace

OptimalOutcome run_optimal(const sdwan::FailureState& state,
                           const FmssmOptions& fmssm) {
  OptimalOutcome outcome;
  FmssmProblem problem = build_fmssm(state, fmssm);

  milp::MipOptions mip;
  mip.pivot_limit = kOptimalPivotBudget;
  // Warm start with PM's plan, trimmed to the delay budget if needed.
  const RecoveryPlan pm_plan = run_pm(state);
  auto encoded = problem.encode(state, pm_plan);
  if (!problem.model.is_feasible(encoded)) {
    encoded = problem.encode(state, trim_to_delay_budget(state, pm_plan));
  }
  if (problem.model.is_feasible(encoded)) {
    mip.warm_start = encoded;
  }

  const milp::MipResult result = milp::solve_mip(problem.model, mip);
  outcome.status = result.status;
  outcome.best_bound = result.best_bound;
  outcome.nodes_explored = result.nodes_explored;
  outcome.seconds = result.seconds;
  if (result.has_solution()) {
    RecoveryPlan plan = problem.decode(result.x);
    plan.solve_seconds = result.seconds;
    plan.proven_optimal = result.status == milp::MipStatus::kOptimal;
    plan.note = milp::to_string(result.status);
    outcome.plan = std::move(plan);
  }
  return outcome;
}

}  // namespace pm::core
