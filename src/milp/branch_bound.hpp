// Branch-and-bound MILP solver on top of the simplex LP relaxation.
//
// Features mirroring how the paper uses GUROBI (Sec. VI-B-1):
//  * warm start — an incumbent can be injected (we seed it with PM's
//    heuristic solution, standard MIP practice), so the solver always
//    reports a solution at least as good as the heuristic;
//  * a pivot limit with honest status reporting: when the limit stops
//    the search before the gap closes, the status says so — this is the
//    behaviour behind the paper's Fig. 6, where "Optimal" produces results
//    in only 12 of 20 three-failure cases. The limit counts simplex
//    iterations summed over the nodes, so where the search stops depends
//    on the model alone, never on the host's speed or load;
//  * best-bound tracking for the optimality gap;
//  * a rounding heuristic at every node to find incumbents early.
//
// Branching: most-fractional integer variable; depth-first search, with
// the child closer to the LP value explored first.
#pragma once

#include <optional>
#include <vector>

#include "milp/model.hpp"

namespace pm::milp {

struct MipOptions {
  /// Simplex pivots summed over every node's LP; checked before each node.
  long pivot_limit = 1000000;
  /// Optional feasible starting solution (checked; ignored if infeasible).
  std::optional<std::vector<double>> warm_start;
};

enum class MipStatus {
  kOptimal,        ///< incumbent proven optimal (gap closed)
  kFeasible,       ///< limit hit; incumbent available but not proven
  kInfeasible,     ///< proven infeasible
  kNoSolutionFound,///< limit hit before any incumbent appeared
  kUnbounded,
};

struct MipResult {
  MipStatus status = MipStatus::kNoSolutionFound;
  double objective = 0.0;          ///< incumbent objective (model sense).
  std::vector<double> x;           ///< incumbent; empty if none.
  double best_bound = 0.0;         ///< proven bound on the optimum.
  long nodes_explored = 0;
  long pivots = 0;                 ///< simplex iterations over all nodes.
  double seconds = 0.0;            ///< wall clock; reported, never a limit.

  bool has_solution() const {
    return status == MipStatus::kOptimal || status == MipStatus::kFeasible;
  }
};

std::string to_string(MipStatus status);

MipResult solve_mip(const Model& model, const MipOptions& options = {});

}  // namespace pm::milp
