// The FMSSM problem (Sec. IV) as a mixed-integer program.
//
// Variables (problem P' after linearization):
//   r        >= 0            — least programmability over the L flows,
//   x_ij     in {0,1}        — offline switch i mapped to controller j,
//   w_ij^l   in {0,1}        — flow l in SDN mode at switch i under
//                              controller j (the linearized x*y product).
//
// Objective:  max  r + lambda * sum p_i^l w_ij^l          (Eqs. 7, 8)
//
// Constraints (numbers follow the paper):
//   (2)   sum_j x_ij <= 1                                  per switch
//   (9')  sum_l w_ij^l <= B_i * x_ij                       per (i, j)
//   pair  sum_j w_ij^l <= 1                                per (i, l)
//   (12)  sum_{i,l} w_ij^l <= A_j^rest                     per controller
//   (13)  sum_{i,j} p_i^l w_ij^l >= r                      per flow
//   (14)  sum w_ij^l D_ij <= G                             delay budget
//
// (9') aggregates the paper's per-triple linearization rows (9)-(11) —
// integer-equivalent (proved in tests against brute force) with a weaker
// LP bound but far fewer rows; y is eliminated because a solution with
// y=1, w=0 is value-equivalent to y=0 (DESIGN.md).
#pragma once

#include <map>
#include <utility>

#include "core/recovery_plan.hpp"
#include "milp/model.hpp"

namespace pm::core {

struct FmssmOptions {
  /// Weight of the total-programmability objective. <= 0 selects the
  /// paper's two-stage-equivalent weight automatically:
  /// lambda = 1 / (1 + sum of all flows' maximum programmability), which
  /// makes any gain in r dominate every possible gain in obj_2.
  double lambda = 0.0;
};

/// The built model plus the index maps needed to decode solutions.
struct FmssmProblem {
  milp::Model model;
  int r_var = -1;
  std::map<std::pair<sdwan::SwitchId, sdwan::ControllerId>, int> x_var;
  std::map<std::tuple<sdwan::SwitchId, sdwan::ControllerId, sdwan::FlowId>,
           int>
      w_var;
  double lambda = 0.0;

  /// Translates a solver assignment into a RecoveryPlan.
  RecoveryPlan decode(const std::vector<double>& solution) const;

  /// Translates a plan into a variable assignment (for warm starts).
  /// The returned vector satisfies the model iff the plan satisfies every
  /// hard constraint *and* the delay budget.
  std::vector<double> encode(const sdwan::FailureState& state,
                             const RecoveryPlan& plan) const;
};

FmssmProblem build_fmssm(const sdwan::FailureState& state,
                         FmssmOptions options = {});

}  // namespace pm::core
