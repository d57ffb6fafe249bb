// The "Optimal" comparison algorithm (Sec. VI-B-1): the FMSSM IP solved by
// a MILP engine — the paper uses GUROBI; this repository uses its own
// branch-and-bound (DESIGN.md, substitution 2).
//
// The solver is warm-started with PM's heuristic solution when that
// solution fits the delay budget (standard MIP practice; guarantees
// Optimal >= PM whenever the budget admits PM's plan). Every solve runs to
// the same work budget, kOptimalPivotBudget simplex pivots, so its plan
// is the same on any host and at any load. The budget may stop the search
// before optimality is proven — the returned plan then carries
// proven_optimal = false, mirroring the paper's Fig. 6 where Optimal
// produces results in only 12 of 20 three-failure cases.
#pragma once

#include <optional>

#include "core/fmssm.hpp"
#include "core/recovery_plan.hpp"
#include "milp/branch_bound.hpp"

namespace pm::core {

/// Simplex pivots, summed over the branch-and-bound nodes, that every
/// Optimal solve may spend. The ATT k = 1 cases prove optimality at the
/// root in under 2,000; the k = 2 and k = 3 cases that stop on it have
/// explored at most 1,020 nodes by then.
inline constexpr long kOptimalPivotBudget = 200'000;

struct OptimalOutcome {
  /// Present when the solver found any incumbent.
  std::optional<RecoveryPlan> plan;
  milp::MipStatus status = milp::MipStatus::kNoSolutionFound;
  double best_bound = 0.0;
  long nodes_explored = 0;
  double seconds = 0.0;
};

OptimalOutcome run_optimal(const sdwan::FailureState& state,
                           const FmssmOptions& fmssm = {});

}  // namespace pm::core
