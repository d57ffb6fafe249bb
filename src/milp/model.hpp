// Mixed-integer linear program model container.
//
// This is the repository's substitute for the GUROBI model API the paper
// uses (DESIGN.md, substitution 2): callers declare variables with bounds
// and type, add linear constraints, and hand the model to solve_lp() /
// solve_mip(). The container is solver-agnostic and validates its inputs
// eagerly so solver code can assume a well-formed problem.
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace pm::milp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarType { kContinuous, kBinary, kInteger };
enum class Sense { kLe, kGe, kEq };
enum class Objective { kMinimize, kMaximize };

struct Variable {
  std::string name;
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  VarType type = VarType::kContinuous;
};

/// One linear term: coefficient * variable.
struct Term {
  int var = 0;
  double coeff = 0.0;
};

struct Constraint {
  std::string name;
  std::vector<Term> terms;  ///< deduplicated, ascending var index.
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

class Model {
 public:
  /// Adds a variable; returns its index. Binary variables get bounds
  /// clamped into [0, 1]. Throws std::invalid_argument if lower > upper.
  int add_variable(const std::string& name, double lower, double upper,
                   double objective_coeff, VarType type);

  int add_continuous(const std::string& name, double lower, double upper,
                     double objective_coeff) {
    return add_variable(name, lower, upper, objective_coeff,
                        VarType::kContinuous);
  }
  int add_binary(const std::string& name, double objective_coeff) {
    return add_variable(name, 0.0, 1.0, objective_coeff, VarType::kBinary);
  }

  /// Adds `terms * x  sense  rhs`. Terms with duplicate variable indices
  /// are merged; zero coefficients dropped. Returns the constraint index.
  int add_constraint(const std::string& name, std::vector<Term> terms,
                     Sense sense, double rhs);

  /// Replaces variable `var`'s bounds. Throws std::invalid_argument if
  /// lower > upper.
  void set_bounds(int var, double lower, double upper);

  void set_objective_sense(Objective sense) { objective_sense_ = sense; }
  Objective objective_sense() const { return objective_sense_; }

  int variable_count() const { return static_cast<int>(variables_.size()); }
  int constraint_count() const {
    return static_cast<int>(constraints_.size());
  }
  const Variable& variable(int i) const { return variables_.at(static_cast<std::size_t>(i)); }
  const Constraint& constraint(int i) const {
    return constraints_.at(static_cast<std::size_t>(i));
  }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  bool has_integer_variables() const;

  /// Objective value of assignment `x` (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// True if `x` satisfies bounds, integrality and all constraints within
  /// `tol`. Used for warm-start validation and in tests.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  Objective objective_sense_ = Objective::kMinimize;
};

}  // namespace pm::milp
