// Presolve: standard reductions applied before the simplex/B&B —
// iterated to a fixed point:
//
//   * integer bound rounding          (lb = ceil(lb), ub = floor(ub))
//   * fixed-variable substitution     (lb == ub folds into the rhs)
//   * singleton-row bound tightening  (a*x <= b becomes a bound; the row
//                                      disappears)
//   * empty-row feasibility checks    (0 <= rhs either trivial or
//                                      infeasible)
//
// The reductions preserve the optimal value exactly; restore() lifts a
// reduced-space solution back to the original variable order. solve_mip
// always presolves before its search.
#pragma once

#include <vector>

#include "milp/model.hpp"

namespace pm::milp {

struct PresolveResult {
  bool infeasible = false;
  Model reduced;
  /// reduced variable index -> original variable index.
  std::vector<int> original_index;
  /// Per original variable: the value presolve fixed it to (only
  /// meaningful where `is_fixed` is true).
  std::vector<double> fixed_value;
  std::vector<char> is_fixed;
  int rows_removed = 0;
  int variables_fixed = 0;

  /// Lifts a solution of `reduced` back to the original space.
  std::vector<double> restore(const std::vector<double>& reduced_x) const;
};

PresolveResult presolve(const Model& model);

}  // namespace pm::milp
