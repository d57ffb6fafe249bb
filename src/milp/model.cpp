#include "milp/model.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace pm::milp {

int Model::add_variable(const std::string& name, double lower, double upper,
                        double objective_coeff, VarType type) {
  if (type == VarType::kBinary) {
    lower = std::max(lower, 0.0);
    upper = std::min(upper, 1.0);
  }
  if (lower > upper) {
    throw std::invalid_argument("variable '" + name +
                                "': lower bound exceeds upper bound");
  }
  variables_.push_back({name, lower, upper, objective_coeff, type});
  return variable_count() - 1;
}

void Model::set_bounds(int var, double lower, double upper) {
  Variable& v = variables_.at(static_cast<std::size_t>(var));
  if (lower > upper) {
    throw std::invalid_argument("variable '" + v.name +
                                "': lower bound exceeds upper bound");
  }
  v.lower = lower;
  v.upper = upper;
}

int Model::add_constraint(const std::string& name, std::vector<Term> terms,
                          Sense sense, double rhs) {
  std::map<int, double> merged;
  for (const Term& t : terms) {
    if (t.var < 0 || t.var >= variable_count()) {
      throw std::invalid_argument("constraint '" + name +
                                  "': variable index out of range");
    }
    if (!std::isfinite(t.coeff)) {
      throw std::invalid_argument("constraint '" + name +
                                  "': non-finite coefficient");
    }
    merged[t.var] += t.coeff;
  }
  Constraint c;
  c.name = name;
  c.sense = sense;
  c.rhs = rhs;
  for (const auto& [var, coeff] : merged) {
    if (coeff != 0.0) c.terms.push_back({var, coeff});
  }
  constraints_.push_back(std::move(c));
  return constraint_count() - 1;
}

bool Model::has_integer_variables() const {
  return std::any_of(variables_.begin(), variables_.end(),
                     [](const Variable& v) {
                       return v.type != VarType::kContinuous;
                     });
}

double Model::objective_value(const std::vector<double>& x) const {
  double obj = 0.0;
  for (int i = 0; i < variable_count(); ++i) {
    obj += variables_[static_cast<std::size_t>(i)].objective *
           x[static_cast<std::size_t>(i)];
  }
  return obj;
}

bool Model::is_feasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != variable_count()) return false;
  for (int i = 0; i < variable_count(); ++i) {
    const Variable& v = variables_[static_cast<std::size_t>(i)];
    const double xi = x[static_cast<std::size_t>(i)];
    if (xi < v.lower - tol || xi > v.upper + tol) return false;
    if (v.type != VarType::kContinuous &&
        std::abs(xi - std::round(xi)) > tol) {
      return false;
    }
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const Term& t : c.terms) {
      lhs += t.coeff * x[static_cast<std::size_t>(t.var)];
    }
    switch (c.sense) {
      case Sense::kLe:
        if (lhs > c.rhs + tol) return false;
        break;
      case Sense::kGe:
        if (lhs < c.rhs - tol) return false;
        break;
      case Sense::kEq:
        if (std::abs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace pm::milp
