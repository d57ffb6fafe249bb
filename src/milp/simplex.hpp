// Bounded-variable two-phase primal revised simplex.
//
// Solves the LP relaxation of a Model (integrality ignored):
//
//     min / max  c x
//     s.t.       A x {<=, >=, =} b,   l <= x <= u
//
// Implementation notes:
//  * Revised simplex with an explicit basis inverse B^-1, stored dense
//    row-major and refactorized periodically by Gauss-Jordan for
//    numerical hygiene. Constraint columns stay sparse, so pricing is
//    cheap even for the FMSSM-sized instances (thousands of columns).
//  * B^-1 of an FMSSM basis is mostly exact zeros, so each row of it
//    carries an index: a superset of its nonzero columns, in one flat
//    m x m int array. The duals y = c_B^T B^-1 read only the indexed
//    columns of each costed row; a pivot updates only the pivot row's
//    nonzero columns and merges new ones into each touched row's index
//    (a stamp array marks the row's columns; entries that cancelled to
//    zero drop out). A row whose index would exceed m/8 goes dense: it
//    loses its index and y reads it whole, until a rescan (every 64
//    iterations) or the next refactorization finds it sparse again.
//  * Refactorization eliminates across the pivot row's nonzero columns
//    only, builds the inverse in place in B^-1 (one m x m scratch
//    matrix, not two) and then reindexes every row.
//  * Only terms whose factor is exactly 0.0 are skipped, and every sum
//    keeps its order, so each (finite) value of B^-1, y, w and x is the
//    one the all-dense loops compute, up to the sign of an exact zero,
//    which no comparison sees. The pivot path, iteration count and
//    solution bits are the dense solver's (tests/data/ pins them).
//  * Variable bounds are handled implicitly (nonbasic variables rest at a
//    finite bound and may "bound-flip"), so binaries do not inflate the
//    row count.
//  * Phase 1 minimizes the sum of one artificial per row; leftover basic
//    artificials are pinned to [0, 0] for phase 2.
//  * Dantzig pricing with a Bland's-rule fallback after a run of
//    degenerate pivots, which guarantees termination.
#pragma once

#include <string>
#include <vector>

#include "milp/model.hpp"

namespace pm::milp {

struct SimplexOptions {
  int max_iterations = 50000;  ///< across both phases.
  int refactor_every = 500;    ///< basis-inverse rebuild period.
};

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  /// Objective in the model's own sense; meaningful for kOptimal.
  double objective = 0.0;
  /// Values of the model's structural variables; meaningful for kOptimal.
  std::vector<double> x;
  int iterations = 0;
};

std::string to_string(LpStatus status);

/// Solves the LP relaxation of `model`.
LpResult solve_lp(const Model& model, const SimplexOptions& options = {});

}  // namespace pm::milp
