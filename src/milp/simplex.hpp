// Bounded-variable two-phase primal revised simplex.
//
// Solves the LP relaxation of a Model (integrality ignored):
//
//     min / max  c x
//     s.t.       A x {<=, >=, =} b,   l <= x <= u
//
// Implementation notes:
//  * Revised simplex on a sparse LU factorization of the basis matrix B.
//  * Factorization (every refactor_every iterations): row and column
//    singletons are peeled first; they pivot on B's own values and fill
//    nothing, and FMSSM bases (mostly slacks and columns of at most 5
//    entries) are nearly triangular, so they take almost every step. The
//    remaining bump is eliminated right-looking with threshold partial
//    pivoting (a pivot is at least 0.1 of its column) and Markowitz
//    counts. A singular basis stops the solve with kIterationLimit.
//  * Between factorizations each pivot appends one product-form eta
//    matrix: the pivot position and the FTRAN'd entering column. A pivot
//    below 1e-7 of its column's largest entry forces a refactorization
//    before the next iteration.
//  * The duals come from a BTRAN of c_B, and the entering column w and
//    the basic values (at each factorization) from FTRANs. Work and
//    memory per pivot scale with the nonzeros of the factors and etas,
//    not with m^2.
//  * The arithmetic differs from the dense explicit B^-1 this replaced,
//    so rounding may break pricing and ratio-test ties another way: the
//    pivot path and solution bits are this solver's own (tests/data/
//    pins them; objectives agree with the dense solver's to 1e-9).
//  * Variable bounds are handled implicitly (nonbasic variables rest at a
//    finite bound and may "bound-flip"), so binaries do not inflate the
//    row count.
//  * Phase 1 minimizes the sum of one artificial per row; leftover basic
//    artificials are pinned to [0, 0] for phase 2.
//  * Dantzig pricing with a Bland's-rule fallback after a run of
//    degenerate pivots, which guarantees termination.
//  * Pricing computes d = c - A^T y by row, over the rows whose dual y_i
//    is nonzero (Hall and McKinnon's hyper-sparse PRICE): each such row
//    of the model, then its slack and artificial, subtracts y_i a_ij
//    from d_j. On the ATT FMSSM root LPs 40% of the rows carry a nonzero
//    dual, so most rows are skipped.
//  * The entering column is chosen from an ascending list of the
//    priceable columns, the nonbasic ones whose bounds differ. Each
//    phase builds it (phase 2 pins the artificials) and each pivot
//    removes the entering column and inserts the leaving one unless it is
//    fixed.
//  * Both give the bits of a column-wise pass over every column: d_j
//    takes its terms in ascending row order, and a skipped term y_i a_ij
//    is a zero, which changes at most the sign of a zero d_j. The
//    ascending scan with a strict comparison takes the lowest index on a
//    tie, and Bland's rule the first eligible column.
#pragma once

#include <string>
#include <vector>

#include "milp/model.hpp"

namespace pm::milp {

struct SimplexOptions {
  int max_iterations = 50000;  ///< across both phases.
  int refactor_every = 32;     ///< basis refactorization period.
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
