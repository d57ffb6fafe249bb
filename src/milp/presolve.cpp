#include "milp/presolve.hpp"

#include <cmath>

namespace pm::milp {

namespace {

constexpr double kTol = 1e-9;

struct WorkingVar {
  double lower;
  double upper;
  double objective;
  VarType type;
  std::string name;
  bool fixed = false;
};

struct WorkingRow {
  std::vector<Term> terms;  // over original variable indices
  Sense sense;
  double rhs;
  std::string name;
  bool removed = false;
};

/// Rounds integer bounds inward; returns false if the domain empties.
bool tighten_integrality(WorkingVar& v) {
  if (v.type == VarType::kContinuous) return true;
  v.lower = std::ceil(v.lower - kTol);
  v.upper = std::floor(v.upper + kTol);
  return v.lower <= v.upper + kTol;
}

}  // namespace

std::vector<double> PresolveResult::restore(
    const std::vector<double>& reduced_x) const {
  std::vector<double> out(is_fixed.size(), 0.0);
  for (std::size_t i = 0; i < is_fixed.size(); ++i) {
    if (is_fixed[i]) out[i] = fixed_value[i];
  }
  for (std::size_t r = 0; r < original_index.size(); ++r) {
    out[static_cast<std::size_t>(
        original_index[r])] = reduced_x[r];
  }
  return out;
}

PresolveResult presolve(const Model& model) {
  PresolveResult result;
  const int n = model.variable_count();
  std::vector<WorkingVar> vars;
  vars.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    vars.push_back({v.lower, v.upper, v.objective, v.type, v.name, false});
  }
  std::vector<WorkingRow> rows;
  rows.reserve(static_cast<std::size_t>(model.constraint_count()));
  for (int i = 0; i < model.constraint_count(); ++i) {
    const Constraint& c = model.constraint(i);
    rows.push_back({c.terms, c.sense, c.rhs, c.name, false});
  }
  result.is_fixed.assign(static_cast<std::size_t>(n), 0);
  result.fixed_value.assign(static_cast<std::size_t>(n), 0.0);

  auto fix_var = [&](int j, double value) {
    vars[static_cast<std::size_t>(j)].fixed = true;
    vars[static_cast<std::size_t>(j)].lower = value;
    vars[static_cast<std::size_t>(j)].upper = value;
    result.is_fixed[static_cast<std::size_t>(j)] = 1;
    result.fixed_value[static_cast<std::size_t>(j)] = value;
    ++result.variables_fixed;
  };

  // Initial integrality rounding + detection of already-fixed variables.
  for (int j = 0; j < n; ++j) {
    auto& v = vars[static_cast<std::size_t>(j)];
    if (!tighten_integrality(v)) {
      result.infeasible = true;
      return result;
    }
  }

  bool changed = true;
  while (changed && !result.infeasible) {
    changed = false;

    // Fold newly fixed variables into rows.
    for (int j = 0; j < n; ++j) {
      auto& v = vars[static_cast<std::size_t>(j)];
      if (v.fixed || v.upper - v.lower > kTol) continue;
      const double value = v.lower;
      fix_var(j, value);
      changed = true;
      for (auto& row : rows) {
        if (row.removed) continue;
        for (auto it = row.terms.begin(); it != row.terms.end(); ++it) {
          if (it->var == j) {
            row.rhs -= it->coeff * value;
            row.terms.erase(it);
            break;
          }
        }
      }
    }

    for (auto& row : rows) {
      if (row.removed) continue;
      // Empty row: feasibility check, then drop.
      if (row.terms.empty()) {
        const bool ok = (row.sense == Sense::kLe && row.rhs >= -kTol) ||
                        (row.sense == Sense::kGe && row.rhs <= kTol) ||
                        (row.sense == Sense::kEq &&
                         std::abs(row.rhs) <= kTol);
        if (!ok) {
          result.infeasible = true;
          return result;
        }
        row.removed = true;
        ++result.rows_removed;
        changed = true;
        continue;
      }
      // Singleton row: becomes a bound.
      if (row.terms.size() == 1) {
        const Term t = row.terms.front();
        auto& v = vars[static_cast<std::size_t>(t.var)];
        const double bound = row.rhs / t.coeff;
        switch (row.sense) {
          case Sense::kLe:
            if (t.coeff > 0) v.upper = std::min(v.upper, bound);
            else v.lower = std::max(v.lower, bound);
            break;
          case Sense::kGe:
            if (t.coeff > 0) v.lower = std::max(v.lower, bound);
            else v.upper = std::min(v.upper, bound);
            break;
          case Sense::kEq:
            v.lower = std::max(v.lower, bound);
            v.upper = std::min(v.upper, bound);
            break;
        }
        if (!tighten_integrality(v) || v.lower > v.upper + kTol) {
          result.infeasible = true;
          return result;
        }
        row.removed = true;
        ++result.rows_removed;
        changed = true;
      }
    }
  }

  // Assemble the reduced model.
  std::vector<int> new_index(static_cast<std::size_t>(n), -1);
  for (int j = 0; j < n; ++j) {
    const auto& v = vars[static_cast<std::size_t>(j)];
    if (v.fixed) continue;
    new_index[static_cast<std::size_t>(j)] =
        result.reduced.add_variable(v.name, v.lower, v.upper, v.objective,
                                    v.type);
    result.original_index.push_back(j);
  }
  result.reduced.set_objective_sense(model.objective_sense());
  for (const auto& row : rows) {
    if (row.removed) continue;
    std::vector<Term> terms;
    terms.reserve(row.terms.size());
    for (const Term& t : row.terms) {
      terms.push_back({new_index[static_cast<std::size_t>(t.var)], t.coeff});
    }
    result.reduced.add_constraint(row.name, std::move(terms), row.sense,
                                  row.rhs);
  }
  return result;
}

}  // namespace pm::milp
