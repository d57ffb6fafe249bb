// The "Optimal" comparison algorithm (Sec. VI-B-1): the FMSSM IP solved by
// a MILP engine — the paper uses GUROBI; this repository uses its own
// branch-and-bound (DESIGN.md, substitution 2).
//
// The solver is warm-started with PM's heuristic solution when that
// solution fits the delay budget (standard MIP practice; guarantees
// Optimal >= PM whenever the budget admits PM's plan). A time or node
// limit may stop the search before optimality is proven — the returned
// plan then carries proven_optimal = false, mirroring the paper's Fig. 6
// where Optimal produces results in only 12 of 20 three-failure cases.
#pragma once

#include <optional>

#include "core/fmssm.hpp"
#include "core/recovery_plan.hpp"
#include "milp/branch_bound.hpp"

namespace pm::core {

struct OptimalOptions {
  FmssmOptions fmssm;
  double time_limit_seconds = 60.0;
};

/// Branch-and-bound node budget for every Optimal solve.
inline constexpr long kOptimalNodeLimit = 10000;

struct OptimalOutcome {
  /// Present when the solver found any incumbent.
  std::optional<RecoveryPlan> plan;
  milp::MipStatus status = milp::MipStatus::kNoSolutionFound;
  double best_bound = 0.0;
  long nodes_explored = 0;
  double seconds = 0.0;
};

OptimalOutcome run_optimal(const sdwan::FailureState& state,
                           OptimalOptions options = {});

}  // namespace pm::core
