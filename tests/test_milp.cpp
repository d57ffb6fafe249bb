#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <sstream>
#include <string>

#include "core/fmssm.hpp"
#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "golden.hpp"
#include "milp/branch_bound.hpp"
#include "milp/model.hpp"
#include "milp/presolve.hpp"
#include "milp/simplex.hpp"
#include "sdwan/failure.hpp"

namespace pm::milp {
namespace {

using golden::hex64;
using golden::read_data_file;

// ---------------------------------------------------------------------
// Model container
// ---------------------------------------------------------------------

TEST(Model, VariableValidation) {
  Model m;
  EXPECT_THROW(m.add_variable("bad", 2.0, 1.0, 0.0, VarType::kContinuous),
               std::invalid_argument);
  const int b = m.add_variable("b", -5.0, 5.0, 1.0, VarType::kBinary);
  EXPECT_DOUBLE_EQ(m.variable(b).lower, 0.0);  // clamped
  EXPECT_DOUBLE_EQ(m.variable(b).upper, 1.0);
}

TEST(Model, SetBoundsReplacesBoundsAndValidates) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 10.0, 1.0);
  m.set_bounds(x, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(m.variable(x).lower, 2.0);
  EXPECT_DOUBLE_EQ(m.variable(x).upper, 3.0);
  EXPECT_THROW(m.set_bounds(x, 4.0, 3.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.variable(x).lower, 2.0);  // unchanged on throw
  EXPECT_THROW(m.set_bounds(1, 0.0, 1.0), std::out_of_range);
}

TEST(Model, ConstraintMergingAndValidation) {
  Model m;
  const int x = m.add_continuous("x", 0, 10, 1);
  const int c = m.add_constraint("c", {{x, 1.0}, {x, 2.0}, {x, -3.0}},
                                 Sense::kLe, 5.0);
  EXPECT_TRUE(m.constraint(c).terms.empty());  // 1+2-3 = 0 dropped
  EXPECT_THROW(m.add_constraint("bad", {{7, 1.0}}, Sense::kLe, 0.0),
               std::invalid_argument);
  EXPECT_THROW(
      m.add_constraint("nan", {{x, std::nan("")}}, Sense::kLe, 0.0),
      std::invalid_argument);
}

TEST(Model, FeasibilityCheck) {
  Model m;
  const int x = m.add_binary("x", 1);
  const int y = m.add_continuous("y", 0, 5, 1);
  m.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Sense::kLe, 3.0);
  EXPECT_TRUE(m.is_feasible({1.0, 2.0}));
  EXPECT_FALSE(m.is_feasible({1.0, 2.5}));   // violates c
  EXPECT_FALSE(m.is_feasible({0.5, 1.0}));   // x fractional
  EXPECT_FALSE(m.is_feasible({1.0, 6.0}));   // y above bound
  EXPECT_FALSE(m.is_feasible({1.0}));        // wrong size
  EXPECT_DOUBLE_EQ(m.objective_value({1.0, 2.0}), 3.0);
}

TEST(Model, HasIntegerVariables) {
  Model m;
  m.add_continuous("x", 0, 1, 0);
  EXPECT_FALSE(m.has_integer_variables());
  m.add_binary("b", 0);
  EXPECT_TRUE(m.has_integer_variables());
}

// ---------------------------------------------------------------------
// LP: known cases
// ---------------------------------------------------------------------

TEST(Simplex, TextbookMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, 0 <= x <= 3 -> (3, 1), 11.
  Model m;
  const int x = m.add_continuous("x", 0, 3, 3);
  const int y = m.add_continuous("y", 0, kInfinity, 2);
  m.set_objective_sense(Objective::kMaximize);
  m.add_constraint("c1", {{x, 1}, {y, 1}}, Sense::kLe, 4);
  m.add_constraint("c2", {{x, 1}, {y, 3}}, Sense::kLe, 6);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 11.0, 1e-9);
  EXPECT_NEAR(r.x[0], 3.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(Simplex, Minimization) {
  // min x + y s.t. x + y = 10, x - y >= 2 -> objective 10.
  Model m;
  const int x = m.add_continuous("x", 0, kInfinity, 1);
  const int y = m.add_continuous("y", 0, kInfinity, 1);
  m.add_constraint("e", {{x, 1}, {y, 1}}, Sense::kEq, 10);
  m.add_constraint("g", {{x, 1}, {y, -1}}, Sense::kGe, 2);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-9);
  EXPECT_GE(r.x[0] - r.x[1], 2.0 - 1e-9);
}

TEST(Simplex, InfeasibleDetected) {
  Model m;
  const int x = m.add_continuous("x", 0, 3, 1);
  m.add_constraint("c", {{x, 1}}, Sense::kGe, 5);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  Model m;
  const int x = m.add_continuous("x", 0, kInfinity, 1);
  m.set_objective_sense(Objective::kMaximize);
  m.add_constraint("c", {{x, -1}}, Sense::kLe, 0);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, FreeVariable) {
  // min x s.t. x >= -7 with x free -> -7.
  Model m;
  const int x = m.add_continuous("x", -kInfinity, kInfinity, 1);
  m.add_constraint("c", {{x, 1}}, Sense::kGe, -7);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -7.0, 1e-9);
}

TEST(Simplex, NegativeRhsNeedsPhase1) {
  // -x <= -3 i.e. x >= 3; min x with x in [0, 10] -> 3.
  Model m;
  const int x = m.add_continuous("x", 0, 10, 1);
  m.add_constraint("c", {{x, -1}}, Sense::kLe, -3);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

TEST(Simplex, BoundFlipPath) {
  // max x + y, x + y <= 1.5, x,y in [0,1]: optimum 1.5 needs one variable
  // at its upper bound.
  Model m;
  const int x = m.add_continuous("x", 0, 1, 1);
  const int y = m.add_continuous("y", 0, 1, 1);
  m.set_objective_sense(Objective::kMaximize);
  m.add_constraint("c", {{x, 1}, {y, 1}}, Sense::kLe, 1.5);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.5, 1e-9);
}

TEST(Simplex, NoConstraints) {
  Model m;
  m.add_continuous("x", -2, 5, 1);
  m.set_objective_sense(Objective::kMaximize);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, 5.0);

  Model u;
  u.add_continuous("x", 0, kInfinity, 1);
  u.set_objective_sense(Objective::kMaximize);
  EXPECT_EQ(solve_lp(u).status, LpStatus::kUnbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Highly degenerate: many redundant constraints through the origin.
  Model m;
  const int x = m.add_continuous("x", 0, kInfinity, -1);
  const int y = m.add_continuous("y", 0, kInfinity, -1);
  m.set_objective_sense(Objective::kMinimize);
  for (int k = 1; k <= 6; ++k) {
    m.add_constraint("c" + std::to_string(k),
                     {{x, static_cast<double>(k)}, {y, 1.0}}, Sense::kGe,
                     0.0);
  }
  m.add_constraint("cap", {{x, 1}, {y, 1}}, Sense::kLe, 2.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.0, 1e-9);
}

// ---------------------------------------------------------------------
// LP: pricing rules. Dantzig's rule takes the largest |d_j| and, on a
// tie, the lowest column index; fixed columns are never priced; after a
// run of more than 64 degenerate steps Bland's rule takes the first
// eligible column. Each model below moves x or the iteration count when
// one of these rules changes.
// ---------------------------------------------------------------------

TEST(Simplex, PricingTieEntersTheLowerIndex) {
  // min -x0 - x1 s.t. x0 + x1 <= 1: both start with d = -1. x0 enters,
  // the slack leaves, and the next pricing finds d_x1 = 0.
  Model m;
  const int x0 = m.add_continuous("x0", 0, kInfinity, -1);
  const int x1 = m.add_continuous("x1", 0, kInfinity, -1);
  m.add_constraint("c", {{x0, 1}, {x1, 1}}, Sense::kLe, 1);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.iterations, 2);
  EXPECT_EQ(r.x[0], 1.0);
  EXPECT_EQ(r.x[1], 0.0);
}

TEST(Simplex, PricingNeverEntersAFixedColumn) {
  // z is fixed at 0 with the best reduced cost, -5. Priced, it would take
  // a zero-length bound flip before x entered: one more iteration.
  Model m;
  const int z = m.add_continuous("z", 0, 0, -5);
  const int x = m.add_continuous("x", 0, kInfinity, -1);
  m.add_constraint("c", {{z, 1}, {x, 1}}, Sense::kLe, 1);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.iterations, 2);
  EXPECT_EQ(r.x[0], 0.0);
  EXPECT_EQ(r.x[1], 1.0);
}

TEST(Simplex, BlandsRuleEntersTheFirstEligibleColumn) {
  // min -x0 - 2 x1 - 100 sum t_k s.t. x0 + x1 <= 1, t_k in [0, 1e-12]
  // and in no row. Dantzig flips the 65 t_k first, each a degenerate
  // step; the run of 65 turns Bland's rule on, which enters x0 (first
  // eligible) where Dantzig would enter x1 (|d| = 2). x1 then replaces
  // x0: 65 + 3 iterations, against 65 + 2 for a direct x1.
  Model m;
  const int x0 = m.add_continuous("x0", 0, kInfinity, -1);
  const int x1 = m.add_continuous("x1", 0, kInfinity, -2);
  for (int k = 0; k < 65; ++k) {
    m.add_continuous("t", 0, 1e-12, -100);
  }
  m.add_constraint("c", {{x0, 1}, {x1, 1}}, Sense::kLe, 1);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.iterations, 68);
  EXPECT_EQ(r.x[0], 0.0);
  EXPECT_EQ(r.x[1], 1.0);
  for (std::size_t k = 2; k < r.x.size(); ++k) EXPECT_EQ(r.x[k], 1e-12) << k;
}

// ---------------------------------------------------------------------
// LP: randomized cross-check against grid enumeration.
// Feasible regions are boxes with a few cuts; we verify the simplex
// objective dominates every feasible grid point (LP optimum must be >=
// any feasible point's value for maximization) and is itself feasible.
// ---------------------------------------------------------------------

class SimplexRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandom, OptimumDominatesFeasibleGrid) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> coeff(-5.0, 5.0);
  std::uniform_real_distribution<double> rhs(1.0, 20.0);

  Model m;
  const int n = 4;
  for (int j = 0; j < n; ++j) {
    m.add_continuous("x" + std::to_string(j), 0.0, 4.0, coeff(rng));
  }
  m.set_objective_sense(Objective::kMaximize);
  for (int i = 0; i < 5; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) terms.push_back({j, coeff(rng)});
    m.add_constraint("c" + std::to_string(i), std::move(terms), Sense::kLe,
                     rhs(rng));
  }

  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal) << "seed=" << GetParam();
  EXPECT_TRUE(m.is_feasible(r.x, 1e-6));

  // Enumerate the integer grid {0..4}^4 and check no feasible point beats
  // the LP optimum.
  std::vector<double> pt(n);
  for (int a = 0; a <= 4; ++a) {
    for (int b = 0; b <= 4; ++b) {
      for (int c = 0; c <= 4; ++c) {
        for (int d = 0; d <= 4; ++d) {
          pt = {static_cast<double>(a), static_cast<double>(b),
                static_cast<double>(c), static_cast<double>(d)};
          if (m.is_feasible(pt)) {
            EXPECT_LE(m.objective_value(pt), r.objective + 1e-6);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom,
                         ::testing::Values(101, 102, 103, 104, 105, 106,
                                           107, 108, 109, 110));

// ---------------------------------------------------------------------
// MIP
// ---------------------------------------------------------------------

TEST(Mip, Knapsack) {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const double value[] = {8, 11, 6, 4};
  const double weight[] = {5, 7, 4, 3};
  std::vector<Term> terms;
  for (int i = 0; i < 4; ++i) {
    const int v = m.add_binary("v" + std::to_string(i), value[i]);
    terms.push_back({v, weight[i]});
  }
  m.add_constraint("cap", terms, Sense::kLe, 14);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 21.0, 1e-9);  // items 1, 2, 3
  EXPECT_NEAR(r.best_bound, 21.0, 1e-6);
}

TEST(Mip, PureLpPassThrough) {
  Model m;
  const int x = m.add_continuous("x", 0, 2, 1);
  m.set_objective_sense(Objective::kMaximize);
  m.add_constraint("c", {{x, 1}}, Sense::kLe, 1.5);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.5, 1e-9);
  EXPECT_EQ(r.nodes_explored, 1);
}

TEST(Mip, InfeasibleIntegerProblem) {
  // 2x = 1 with x binary.
  Model m;
  const int x = m.add_binary("x", 1);
  m.add_constraint("c", {{x, 2}}, Sense::kEq, 1);
  EXPECT_EQ(solve_mip(m).status, MipStatus::kInfeasible);
}

TEST(Mip, GeneralIntegerVariables) {
  // max x + y, 3x + 5y <= 15, x,y integer in [0, 4] -> (4,0): 4? or
  // (0,3): 3, (4, 0): obj 4; but x+y with (2,1)=3... best integer: x=4
  // (12 <= 15) y=0 -> 4? (3,1): 9+5=14 -> 4. So optimum 4 at (4, 0) or (3, 1).
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int x = m.add_variable("x", 0, 4, 1, VarType::kInteger);
  const int y = m.add_variable("y", 0, 4, 1, VarType::kInteger);
  m.add_constraint("c", {{x, 3}, {y, 5}}, Sense::kLe, 15);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-9);
}

TEST(Mip, WarmStartRespectedAndImproved) {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const double value[] = {8, 11, 6, 4};
  const double weight[] = {5, 7, 4, 3};
  std::vector<Term> terms;
  for (int i = 0; i < 4; ++i) {
    const int v = m.add_binary("v" + std::to_string(i), value[i]);
    terms.push_back({v, weight[i]});
  }
  m.add_constraint("cap", terms, Sense::kLe, 14);
  MipOptions opts;
  opts.warm_start = std::vector<double>{1, 0, 0, 1};  // value 12, feasible
  const MipResult r = solve_mip(m, opts);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 21.0, 1e-9);  // improved past the warm start

  // With a zero pivot budget the search stops before the root, and the
  // warm start itself must be returned.
  MipOptions frozen;
  frozen.warm_start = std::vector<double>{1, 0, 0, 1};
  frozen.pivot_limit = 0;
  const MipResult f = solve_mip(m, frozen);
  EXPECT_EQ(f.status, MipStatus::kFeasible);
  EXPECT_NEAR(f.objective, 12.0, 1e-9);
}

TEST(Mip, InfeasibleWarmStartIgnored) {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int x = m.add_binary("x", 1);
  m.add_constraint("c", {{x, 1}}, Sense::kLe, 1);
  MipOptions opts;
  opts.warm_start = std::vector<double>{2.0};  // out of bounds
  const MipResult r = solve_mip(m, opts);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(Mip, NodeLimitReportsHonestStatus) {
  // A problem needing branching, with no warm start and a zero budget: the
  // search stops before the root, so no node is explored and no pivot made.
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  std::vector<Term> terms;
  for (int i = 0; i < 6; ++i) {
    const int v = m.add_binary("v" + std::to_string(i), 1.0 + 0.1 * i);
    terms.push_back({v, 2.0 + static_cast<double>(i % 3)});
  }
  m.add_constraint("cap", terms, Sense::kLe, 7.0);
  MipOptions opts;
  opts.pivot_limit = 0;
  const MipResult r = solve_mip(m, opts);
  EXPECT_EQ(r.status, MipStatus::kNoSolutionFound);
  EXPECT_FALSE(r.has_solution());
  EXPECT_EQ(r.nodes_explored, 0);
  EXPECT_EQ(r.pivots, 0);
}

TEST(Mip, PivotLimitReportsHonestStatus) {
  // max x0 + x1 + x2 with 2(x0 + x1 + x2) <= 3: every LP vertex is one
  // variable at 1 and another at 0.5, whose rounding breaks the row, so
  // the root finds no incumbent and the proof needs branching.
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  std::vector<Term> terms;
  for (int i = 0; i < 3; ++i) {
    terms.push_back({m.add_binary("x" + std::to_string(i), 1.0), 2.0});
  }
  m.add_constraint("cap", terms, Sense::kLe, 3.0);
  ASSERT_EQ(solve_mip(m).status, MipStatus::kOptimal);

  // One pivot lets the root solve and stops the search before any child.
  MipOptions opts;
  opts.pivot_limit = 1;
  const MipResult cold = solve_mip(m, opts);
  EXPECT_EQ(cold.status, MipStatus::kNoSolutionFound);
  EXPECT_FALSE(cold.has_solution());
  EXPECT_EQ(cold.nodes_explored, 1);
  EXPECT_GE(cold.pivots, 1);

  opts.warm_start = std::vector<double>{1, 0, 0};  // optimal, not proven
  const MipResult warm = solve_mip(m, opts);
  EXPECT_EQ(warm.status, MipStatus::kFeasible);
  EXPECT_NEAR(warm.objective, 1.0, 1e-9);
  EXPECT_NEAR(warm.best_bound, 1.5, 1e-9);

  // The budget counts work, not time: a second solve stops at the same
  // place with the same answer.
  const MipResult again = solve_mip(m, opts);
  EXPECT_EQ(again.status, warm.status);
  EXPECT_EQ(again.x, warm.x);
  EXPECT_EQ(again.objective, warm.objective);
  EXPECT_EQ(again.best_bound, warm.best_bound);
  EXPECT_EQ(again.nodes_explored, warm.nodes_explored);
  EXPECT_EQ(again.pivots, warm.pivots);
}

class MipRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MipRandom, MatchesBruteForceOnBinaryProblems) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> coeff(-4.0, 6.0);
  std::uniform_real_distribution<double> rhs(2.0, 12.0);

  const int n = 8;
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.add_binary("b" + std::to_string(j), coeff(rng));
  }
  for (int i = 0; i < 4; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, std::abs(coeff(rng))});
    }
    m.add_constraint("c" + std::to_string(i), std::move(terms), Sense::kLe,
                     rhs(rng));
  }

  // Brute force over all 2^8 assignments.
  double best = -1e18;
  bool any = false;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[static_cast<std::size_t>(j)] = (mask >> j) & 1;
    if (m.is_feasible(x)) {
      any = true;
      best = std::max(best, m.objective_value(x));
    }
  }
  ASSERT_TRUE(any);  // all-zeros is always feasible here

  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal) << "seed=" << GetParam();
  EXPECT_NEAR(r.objective, best, 1e-6) << "seed=" << GetParam();
  EXPECT_TRUE(m.is_feasible(r.x));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MipRandom,
                         ::testing::Values(201, 202, 203, 204, 205, 206,
                                           207, 208, 209, 210, 211, 212));

TEST(Mip, MixedIntegerContinuous) {
  // max 2b + y, y <= 1.7, b binary, b + y <= 2 -> b=1, y=1 -> wait:
  // y <= 1.7 and b + y <= 2 -> b=1, y=1 -> 3? y can be 1.0 only if
  // b + y <= 2 -> y <= 1; objective 2*1 + 1 = 3.
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int b = m.add_binary("b", 2);
  const int y = m.add_continuous("y", 0, 1.7, 1);
  m.add_constraint("c", {{b, 1}, {y, 1}}, Sense::kLe, 2);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(b)], 1.0, 1e-9);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y)], 1.0, 1e-9);
}

TEST(MipStatusStrings, AllCovered) {
  EXPECT_EQ(to_string(MipStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(MipStatus::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(LpStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(LpStatus::kIterationLimit), "iteration-limit");
}


// ---------------------------------------------------------------------
// Presolve
// ---------------------------------------------------------------------

TEST(Presolve, FixesSingletonEqualityAndFoldsIntoRows) {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int x = m.add_continuous("x", 0, 10, 1);
  const int y = m.add_continuous("y", 0, 10, 1);
  m.add_constraint("fix", {{x, 2.0}}, Sense::kEq, 6.0);   // x = 3
  m.add_constraint("cap", {{x, 1.0}, {y, 1.0}}, Sense::kLe, 8.0);
  const PresolveResult pre = presolve(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.variables_fixed, 1);
  EXPECT_EQ(pre.reduced.variable_count(), 1);
  // The remaining row became y <= 5... as a singleton it is absorbed
  // into y's bound, so no rows remain.
  EXPECT_EQ(pre.reduced.constraint_count(), 0);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).upper, 5.0);
  // restore() lifts correctly.
  const auto full = pre.restore({4.0});
  ASSERT_EQ(full.size(), 2u);
  EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(x)], 3.0);
  EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(y)], 4.0);
}

TEST(Presolve, DetectsInfeasibility) {
  {
    Model m;
    const int x = m.add_continuous("x", 0, 1, 0);
    m.add_constraint("c", {{x, 1.0}}, Sense::kGe, 5.0);
    EXPECT_TRUE(presolve(m).infeasible);
  }
  {
    Model m;
    const int x = m.add_binary("x", 0);
    // 2x = 1 -> x = 0.5, not integral.
    m.add_constraint("c", {{x, 2.0}}, Sense::kEq, 1.0);
    EXPECT_TRUE(presolve(m).infeasible);
  }
  {
    Model m;
    (void)m.add_continuous("x", 0, 1, 0);
    m.add_constraint("empty", {}, Sense::kGe, 3.0);  // 0 >= 3
    EXPECT_TRUE(presolve(m).infeasible);
  }
}

TEST(Presolve, IntegerBoundRounding) {
  Model m;
  (void)m.add_variable("k", 0.3, 4.7, 1.0, VarType::kInteger);
  const PresolveResult pre = presolve(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).lower, 1.0);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).upper, 4.0);
}

TEST(Presolve, NoopOnIrreducibleModel) {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int x = m.add_binary("x", 1);
  const int y = m.add_binary("y", 1);
  m.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0);
  const PresolveResult pre = presolve(m);
  EXPECT_EQ(pre.variables_fixed, 0);
  EXPECT_EQ(pre.rows_removed, 0);
  EXPECT_EQ(pre.reduced.variable_count(), 2);
}

class PresolveEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PresolveEquivalence, SolveMipAgreesWithAndWithoutPresolve) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> coeff(-4.0, 6.0);
  std::uniform_real_distribution<double> rhs(1.0, 10.0);
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int n = 7;
  for (int j = 0; j < n; ++j) {
    m.add_binary("b" + std::to_string(j), coeff(rng));
  }
  // A mix of singleton rows (absorbed), fixings, and real constraints.
  m.add_constraint("fix0", {{0, 1.0}}, Sense::kEq, 1.0);
  m.add_constraint("cap1", {{1, 1.0}}, Sense::kLe, 0.0);  // forces b1 = 0
  for (int i = 0; i < 3; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) terms.push_back({j, std::abs(coeff(rng))});
    m.add_constraint("c" + std::to_string(i), std::move(terms), Sense::kLe,
                     rhs(rng) + 3.0);
  }
  const MipResult a = solve_mip(m);
  ASSERT_EQ(a.status, MipStatus::kOptimal) << "seed=" << GetParam();
  // Without presolve: the best of all 2^n binary points.
  double best = -kInfinity;
  for (unsigned bits = 0; bits < (1U << n); ++bits) {
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = (bits >> j) & 1U;
    if (m.is_feasible(x)) best = std::max(best, m.objective_value(x));
  }
  EXPECT_NEAR(a.objective, best, 1e-6) << "seed=" << GetParam();
  EXPECT_TRUE(m.is_feasible(a.x));
  EXPECT_NEAR(a.x[0], 1.0, 1e-9);
  EXPECT_NEAR(a.x[1], 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolveEquivalence,
                         ::testing::Values(301, 302, 303, 304, 305, 306,
                                           307, 308));

// ---------------------------------------------------------------------
// Simplex robustness
// ---------------------------------------------------------------------

TEST(SimplexRobustness, FrequentRefactorizationAgrees) {
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> coeff(0.5, 5.0);
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int n = 12;
  for (int j = 0; j < n; ++j) {
    m.add_continuous("x" + std::to_string(j), 0.0, 3.0, coeff(rng));
  }
  for (int i = 0; i < 8; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) terms.push_back({j, coeff(rng)});
    m.add_constraint("c" + std::to_string(i), std::move(terms), Sense::kLe,
                     10.0 + coeff(rng));
  }
  SimplexOptions normal;
  SimplexOptions paranoid;
  paranoid.refactor_every = 2;  // refactorize the basis constantly
  const LpResult a = solve_lp(m, normal);
  const LpResult b = solve_lp(m, paranoid);
  ASSERT_EQ(a.status, LpStatus::kOptimal);
  ASSERT_EQ(b.status, LpStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-7);
}

// x enters on a pivot of 1e-9 against a column entry of 1, small enough
// that the basis is refactorized before the next iteration.
TEST(SimplexRobustness, TinyPivotForcesRefactorization) {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int x = m.add_continuous("x", 0.0, kInfinity, 1.0);
  const int y = m.add_continuous("y", 0.0, 4.0, 1.0);
  m.add_constraint("tiny", {{x, 1e-9}, {y, -1e-9}}, Sense::kLe, 0.0);
  m.add_constraint("cap", {{x, 1.0}, {y, 1.0}}, Sense::kLe, 10.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 8.0, 1e-6);
  EXPECT_NEAR(r.x[0], 4.0, 1e-6);
  EXPECT_NEAR(r.x[1], 4.0, 1e-6);
}

TEST(SimplexRobustness, IterationLimitReported) {
  std::mt19937_64 rng(78);
  std::uniform_real_distribution<double> coeff(0.5, 5.0);
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  for (int j = 0; j < 20; ++j) {
    m.add_continuous("x" + std::to_string(j), 0.0, 3.0, coeff(rng));
  }
  for (int i = 0; i < 15; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < 20; ++j) terms.push_back({j, coeff(rng)});
    m.add_constraint("c" + std::to_string(i), std::move(terms), Sense::kLe,
                     12.0);
  }
  SimplexOptions strangled;
  strangled.max_iterations = 1;
  EXPECT_EQ(solve_lp(m, strangled).status, LpStatus::kIterationLimit);
}

TEST(SimplexRobustness, RefactorEveryBelowOneIsClampedToOne) {
  Model m;
  m.set_objective_sense(Objective::kMaximize);
  const int x = m.add_continuous("x", 0.0, kInfinity, 3.0);
  const int y = m.add_continuous("y", 0.0, kInfinity, 5.0);
  m.add_constraint("c1", {{x, 1.0}}, Sense::kLe, 4.0);
  m.add_constraint("c2", {{y, 2.0}}, Sense::kLe, 12.0);
  m.add_constraint("c3", {{x, 3.0}, {y, 2.0}}, Sense::kLe, 18.0);
  for (const int every : {0, -3}) {
    SimplexOptions options;
    options.refactor_every = every;
    const LpResult r = solve_lp(m, options);
    ASSERT_EQ(r.status, LpStatus::kOptimal) << every;
    EXPECT_NEAR(r.objective, 36.0, 1e-9) << every;
    EXPECT_NEAR(r.x[0], 2.0, 1e-9) << every;
    EXPECT_NEAR(r.x[1], 6.0, 1e-9) << every;
  }
}

// ---------------------------------------------------------------------
// Golden LP results. The data files hold what the sparse LU simplex
// produced when it replaced the dense explicit B^-1; every status was
// the dense solver's and every objective within 1e-13 of it. Any change
// to the pivot path, the iteration count or a bit of x shows up here.
// ---------------------------------------------------------------------

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// golden::fnv1a64's FNV-1a (offset basis 1469598103934665603, not
/// standard FNV-1a-64's) over the little-endian bytes of each value's
/// bit pattern.
std::uint64_t fnv1a64_bits(const std::vector<double>& values) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const double v : values) {
    const std::uint64_t bits = bits_of(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

/// Non-comment lines of a data file.
std::vector<std::string> data_lines(const std::string& name) {
  std::vector<std::string> out;
  std::istringstream in(read_data_file(name));
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') out.push_back(line);
  }
  return out;
}

std::string failed_csv(const sdwan::FailureScenario& scenario) {
  std::string out;
  for (const int c : scenario.failed) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

/// The root LP run_optimal solves for one ATT failure set: the FMSSM
/// model, presolved, relaxed. Line format of fmssm_root_lp_att_k2.txt:
/// failed-set m n iterations objective-bits x-digest.
std::string root_lp_line(const sdwan::FailureState& state) {
  const core::FmssmProblem problem = core::build_fmssm(state);
  const PresolveResult reduced = presolve(problem.model);
  const LpResult lp = solve_lp(reduced.reduced);
  return failed_csv(state.scenario()) + " " +
         std::to_string(reduced.reduced.constraint_count()) + " " +
         std::to_string(reduced.reduced.variable_count()) + " " +
         std::to_string(lp.iterations) + " " +
         hex64(bits_of(lp.objective)) + " " + hex64(fnv1a64_bits(lp.x));
}

/// Checks every ATT failure set with k <= 2 whose k is 1 or whose golden
/// row count is below `max_k2_rows`; returns how many were solved.
int check_att_root_lps(int max_k2_rows) {
  std::map<std::string, std::string> golden;
  for (const std::string& line : data_lines("fmssm_root_lp_att_k2.txt")) {
    golden[line.substr(0, line.find(' '))] = line;
  }
  EXPECT_EQ(golden.size(), 6u + 15u);
  const sdwan::Network net = core::make_att_network();
  int checked = 0;
  for (const int k : {1, 2}) {
    for (sdwan::FailureScenario& scenario : sdwan::enumerate_failures(net, k)) {
      const auto it = golden.find(failed_csv(scenario));
      if (it == golden.end()) {
        ADD_FAILURE() << "no golden line for " << failed_csv(scenario);
        continue;
      }
      int rows = 0;
      std::istringstream(it->second.substr(it->first.size())) >> rows;
      if (k == 2 && rows >= max_k2_rows) continue;
      const sdwan::FailureState state(net, std::move(scenario));
      EXPECT_EQ(root_lp_line(state), it->second);
      ++checked;
    }
  }
  return checked;
}

TEST(MilpGolden, AttRootLpsMatchParent) {
  EXPECT_GE(check_att_root_lps(700), 6);
}

// All 21 sets, up to m = 1253 rows (several seconds in Release);
// `ctest -C full` runs it (test_milp.AllRootLpGoldens).
TEST(MilpGolden, DISABLED_AttRootLpsMatchParentAllSets) {
  EXPECT_EQ(check_att_root_lps(1 << 30), 21);
}

/// Branch and bound on one ATT FMSSM model, PM's plan as warm start
/// (as run_optimal does), stopped by `pivot_limit`. Line format:
/// failed-set status nodes pivots objective-bits best-bound-bits
/// x-digest.
std::string node_lp_line(const std::string& failed, long pivot_limit) {
  const sdwan::Network net = core::make_att_network();
  for (sdwan::FailureScenario& scenario :
       sdwan::enumerate_failures(net, 2)) {
    if (failed_csv(scenario) != failed) continue;
    const sdwan::FailureState state(net, std::move(scenario));
    const core::FmssmProblem problem = core::build_fmssm(state);
    MipOptions options;
    options.pivot_limit = pivot_limit;
    options.warm_start = problem.encode(state, core::run_pm(state));
    const MipResult mip = solve_mip(problem.model, options);
    return failed + " " + to_string(mip.status) + " " +
           std::to_string(mip.nodes_explored) + " " +
           std::to_string(mip.pivots) + " " + hex64(bits_of(mip.objective)) +
           " " + hex64(bits_of(mip.best_bound)) + " " +
           hex64(fnv1a64_bits(mip.x));
  }
  return "no failure set " + failed;
}

// Node LPs solve models whose columns branching fixed, which no root LP
// golden reaches.
TEST(MilpGolden, BranchAndBoundNodesMatchParent) {
  EXPECT_EQ(node_lp_line("2,4", 6000),
            "2,4 feasible (limit hit) 10 6520 40078b5b20ce5f04 "
            "4007fdc1c0a18214 1dee668aee913a43");
  // PM's plan breaks this set's delay budget, so the search starts
  // without an incumbent and finds none within the limit.
  EXPECT_EQ(node_lp_line("4,5", 4000),
            "4,5 no solution found 3 5081 0000000000000000 "
            "4007d79b2a48b5c6 14650fb0739d0383");
}

/// Draws straight from the engine's output, so the models do not depend
/// on a standard library's distribution implementation.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  int below(int n) {
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }
  double unit() { return static_cast<double>(rng_() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return unit() < p; }
  /// Nonzero; a small integer half the time (ties, degeneracy), a
  /// quarter step otherwise.
  double coeff() {
    const double v = chance(0.5) ? 1 + below(5) : 0.25 * (1 + below(24));
    return chance(0.5) ? v : -v;
  }

 private:
  std::mt19937_64 rng_;
};

/// A seeded LP that reaches every simplex path: <=, >= and = rows (phase
/// 1), boxed, half-bounded, free and fixed variables (bound flips,
/// kFreeAtZero), rows tight at the resting point (degenerate pivots), a
/// block of rows with >= 50% fill (a bump with fill-in when the basis is
/// factorized) and, in a quarter of the models, a cone on which the
/// resting point is optimal (a run of degenerate pivots long enough for
/// Bland's rule).
/// Rows are built around a point x0 inside the bounds, so most models are
/// feasible; some stay unbounded and a few get a contradictory pair of
/// rows.
Model random_lp(std::uint64_t seed) {
  Draw d(seed);
  Model m;
  const bool maximize = d.chance(0.5);
  m.set_objective_sense(maximize ? Objective::kMaximize
                                 : Objective::kMinimize);
  const int n = 30 + d.below(60);
  const int rows = 20 + d.below(50);
  std::vector<double> x0(static_cast<std::size_t>(n));
  std::vector<int> at_zero;  // lower bound 0 and x0 = 0
  for (int j = 0; j < n; ++j) {
    double lo = 0.0;
    double hi = kInfinity;
    double& x = x0[static_cast<std::size_t>(j)];
    switch (d.below(10)) {
      case 0: case 1: case 2: case 3:
        hi = 1 + d.below(6);
        x = d.chance(0.4) ? 0.0 : d.unit() * hi;
        break;
      case 4:
        lo = -d.below(4);
        hi = lo + 1 + d.below(5);
        x = lo + d.unit() * (hi - lo);
        break;
      case 5:
        x = d.chance(0.4) ? 0.0 : d.unit() * 3;
        break;
      case 6:
        lo = -kInfinity;
        hi = d.below(4);
        x = hi - d.unit() * 3;
        break;
      case 7:
        lo = -kInfinity;
        x = d.unit() * 6 - 3;
        break;
      case 8:
        lo = hi = d.below(3);
        x = lo;
        break;
      default:
        lo = d.below(3);
        x = lo + d.unit() * 2;
        break;
    }
    if (lo == 0.0 && x == 0.0) at_zero.push_back(j);
    m.add_continuous("x" + std::to_string(j), lo, hi,
                     d.chance(0.2) ? 0.0 : d.coeff());
    // Most infinite bounds get a row that caps the variable near x0, so
    // most models stay bounded.
    if (!std::isfinite(lo) && d.chance(0.6)) {
      m.add_constraint("cap_lo" + std::to_string(j), {{j, 1.0}}, Sense::kGe,
                       x - 1 - d.below(4));
    }
    if (!std::isfinite(hi) && d.chance(0.6)) {
      m.add_constraint("cap_hi" + std::to_string(j), {{j, 1.0}}, Sense::kLe,
                       x + 1 + d.below(4));
    }
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    const int block = d.below(4);
    if (block == 0 && at_zero.size() >= 2) {
      // Tight at x0 and at the resting point.
      const int len = 2 + d.below(4);
      for (int t = 0; t < len; ++t) {
        terms.push_back({at_zero[static_cast<std::size_t>(
                             d.below(static_cast<int>(at_zero.size())))],
                         d.coeff()});
      }
      m.add_constraint("deg" + std::to_string(i), terms, Sense::kLe, 0.0);
      continue;
    }
    if (block == 1) {
      for (int j = 0; j < n; ++j) {
        if (d.chance(0.6)) terms.push_back({j, d.coeff()});
      }
    } else {
      const int len = 1 + d.below(6);
      for (int t = 0; t < len; ++t) terms.push_back({d.below(n), d.coeff()});
    }
    double a = 0.0;
    for (const Term& t : terms) {
      a += t.coeff * x0[static_cast<std::size_t>(t.var)];
    }
    switch (d.below(5)) {
      case 0: case 1:
        m.add_constraint("le" + std::to_string(i), terms, Sense::kLe,
                         a + (d.chance(0.3) ? 0.0 : d.unit() * 4));
        break;
      case 2: case 3:
        m.add_constraint("ge" + std::to_string(i), terms, Sense::kGe,
                         a - (d.chance(0.3) ? 0.0 : d.unit() * 4));
        break;
      default:
        m.add_constraint("eq" + std::to_string(i), terms, Sense::kEq, a);
        break;
    }
  }
  if (d.chance(0.25)) {
    // Cone A z >= 0, z >= 0 with cost A^T y0 + s (y0, s >= 0): z = 0 is
    // optimal, so every pivot on z is degenerate. The costs are scaled
    // so Dantzig pricing picks z before the rest of the model.
    const int k = 100 + d.below(20);
    const int cone_rows = k * 5 / 6;
    std::vector<double> y0(static_cast<std::size_t>(cone_rows));
    for (double& y : y0) y = d.unit();
    std::vector<std::vector<Term>> cone(static_cast<std::size_t>(cone_rows));
    for (int j = 0; j < k; ++j) {
      double cost = 0.1 * d.unit();
      for (int i = 0; i < cone_rows; ++i) {
        if (!d.chance(0.3)) continue;
        const double a = d.coeff();
        cone[static_cast<std::size_t>(i)].push_back({n + j, a});
        cost += a * y0[static_cast<std::size_t>(i)];
      }
      m.add_continuous("z" + std::to_string(j), 0.0, kInfinity,
                       (maximize ? -10.0 : 10.0) * cost);
    }
    for (int i = 0; i < cone_rows; ++i) {
      m.add_constraint("cone" + std::to_string(i),
                       cone[static_cast<std::size_t>(i)], Sense::kGe, 0.0);
    }
  }
  if (d.chance(0.1)) {
    const int j = d.below(n);
    m.add_constraint("contra_lo", {{j, 1.0}}, Sense::kGe, 1.0);
    m.add_constraint("contra_hi", {{j, 1.0}}, Sense::kLe, 0.5);
  }
  return m;
}

/// Line format of simplex_random_lp_digests.txt: seed refactor_every
/// status iterations objective-bits x-digest.
std::string random_lp_line(std::uint64_t seed, int refactor_every) {
  SimplexOptions options;
  options.refactor_every = refactor_every;
  const LpResult lp = solve_lp(random_lp(seed), options);
  return std::to_string(seed) + " " + std::to_string(refactor_every) + " " +
         to_string(lp.status) + " " + std::to_string(lp.iterations) + " " +
         hex64(bits_of(lp.objective)) + " " + hex64(fnv1a64_bits(lp.x));
}

TEST(MilpGolden, SeededRandomLpsMatchParent) {
  const std::vector<std::string> golden =
      data_lines("simplex_random_lp_digests.txt");
  ASSERT_FALSE(golden.empty());
  for (const std::string& line : golden) {
    std::uint64_t seed = 0;
    int refactor_every = 0;
    std::istringstream(line) >> seed >> refactor_every;
    EXPECT_EQ(random_lp_line(seed, refactor_every), line);
  }
}

}  // namespace
}  // namespace pm::milp
