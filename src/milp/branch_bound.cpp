#include "milp/branch_bound.hpp"

#include <algorithm>

#include "milp/presolve.hpp"
#include "milp/simplex.hpp"
#include <chrono>
#include <cmath>
#include <limits>
#include <tuple>

namespace pm::milp {

std::string to_string(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal: return "optimal";
    case MipStatus::kFeasible: return "feasible (limit hit)";
    case MipStatus::kInfeasible: return "infeasible";
    case MipStatus::kNoSolutionFound: return "no solution found";
    case MipStatus::kUnbounded: return "unbounded";
  }
  return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

/// Relative optimality gap at which the search stops.
constexpr double kGapTolerance = 1e-6;
/// Tolerance for treating an LP value as integral.
constexpr double kIntegralityTolerance = 1e-6;

struct Node {
  /// Bound overrides relative to the root model: (var, lower, upper).
  std::vector<std::tuple<int, double, double>> bound_changes;
  double parent_bound;  ///< LP bound of the parent (for pruning order).
};

class BranchAndBound {
 public:
  BranchAndBound(const Model& model, const MipOptions& options)
      : model_(model), options_(options),
        maximize_(model.objective_sense() == Objective::kMaximize) {}

  MipResult run() {
    const auto start = Clock::now();
    MipResult result;

    if (options_.warm_start && model_.is_feasible(*options_.warm_start)) {
      incumbent_ = *options_.warm_start;
      incumbent_value_ = model_.objective_value(incumbent_);
      have_incumbent_ = true;
    }

    // DFS over nodes; each node re-solves the LP with its bound changes.
    std::vector<Node> stack;
    stack.push_back({{}, maximize_ ? kInfinity : -kInfinity});
    double best_open_bound = stack.back().parent_bound;
    bool any_limit_hit = false;

    while (!stack.empty()) {
      if (result.pivots >= options_.pivot_limit) {
        any_limit_hit = true;
        break;
      }
      Node node = std::move(stack.back());
      stack.pop_back();
      ++result.nodes_explored;

      // Prune by the parent's bound before paying for the LP.
      if (have_incumbent_ && !improves(node.parent_bound)) continue;

      Model local = apply_bounds(node);
      const LpResult lp = solve_lp(local);
      result.pivots += lp.iterations;
      if (lp.status == LpStatus::kInfeasible) continue;
      if (lp.status == LpStatus::kUnbounded) {
        // An unbounded relaxation at the root makes the MIP unbounded or
        // infeasible; report unbounded and stop.
        result.status = MipStatus::kUnbounded;
        result.seconds = elapsed_seconds(start);
        return result;
      }
      if (lp.status == LpStatus::kIterationLimit) {
        any_limit_hit = true;
        continue;  // cannot trust this subtree's bound; drop it (honest:
                   // status will say "feasible", not "optimal")
      }
      if (result.nodes_explored == 1) best_open_bound = lp.objective;

      if (have_incumbent_ && !improves(lp.objective)) continue;

      const int frac = most_fractional(lp.x);
      if (frac < 0) {
        // Integral: new incumbent.
        offer_incumbent(round_integers(lp.x));
        continue;
      }

      // Rounding heuristic: may produce an incumbent cheaply.
      try_rounding(lp.x);

      const double val = lp.x[static_cast<std::size_t>(frac)];
      Node down{node.bound_changes, lp.objective};
      down.bound_changes.emplace_back(
          frac, model_.variable(frac).lower, std::floor(val));
      Node up{node.bound_changes, lp.objective};
      up.bound_changes.emplace_back(frac, std::ceil(val),
                                    model_.variable(frac).upper);
      // Explore the child nearer the LP value first (pushed last).
      if (val - std::floor(val) < 0.5) {
        stack.push_back(std::move(up));
        stack.push_back(std::move(down));
      } else {
        stack.push_back(std::move(down));
        stack.push_back(std::move(up));
      }
    }

    result.seconds = elapsed_seconds(start);
    // Best bound: the strongest value the unexplored tree could attain.
    double open_bound = have_incumbent_ ? incumbent_value_
                                        : (maximize_ ? -kInfinity : kInfinity);
    for (const Node& n : stack) {
      open_bound = maximize_ ? std::max(open_bound, n.parent_bound)
                             : std::min(open_bound, n.parent_bound);
    }
    if (!any_limit_hit) {
      // Search ran to completion.
      if (have_incumbent_) {
        result.status = MipStatus::kOptimal;
        result.best_bound = incumbent_value_;
      } else {
        result.status = MipStatus::kInfeasible;
      }
    } else {
      result.status = have_incumbent_ ? MipStatus::kFeasible
                                      : MipStatus::kNoSolutionFound;
      result.best_bound = stack.empty() ? best_open_bound : open_bound;
    }
    if (have_incumbent_) {
      result.objective = incumbent_value_;
      result.x = incumbent_;
      if (result.status == MipStatus::kFeasible && gap_closed(open_bound)) {
        result.status = MipStatus::kOptimal;
        result.best_bound = incumbent_value_;
      }
    }
    return result;
  }

 private:
  static double elapsed_seconds(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  bool improves(double bound) const {
    if (!have_incumbent_) return true;
    const double margin = 1e-9 * (1.0 + std::abs(incumbent_value_));
    return maximize_ ? bound > incumbent_value_ + margin
                     : bound < incumbent_value_ - margin;
  }

  bool gap_closed(double bound) const {
    if (!have_incumbent_) return false;
    const double gap = std::abs(bound - incumbent_value_) /
                       (1.0 + std::abs(incumbent_value_));
    return gap <= kGapTolerance;
  }

  Model apply_bounds(const Node& node) const {
    return with_bounds(model_, node.bound_changes);
  }

  // A child's bounds nest inside its parent's: the branched value lies
  // strictly between floor and ceil and, up to LP tolerance, inside the
  // node's integral bounds, so no domain comes out empty.
  static Model with_bounds(
      const Model& base,
      const std::vector<std::tuple<int, double, double>>& changes) {
    Model out = base;
    for (const auto& [var, l, u] : changes) {
      const Variable& v = out.variable(var);
      out.set_bounds(var, std::max(v.lower, l), std::min(v.upper, u));
    }
    return out;
  }

  int most_fractional(const std::vector<double>& x) const {
    int best = -1;
    double best_dist = kIntegralityTolerance;
    for (int j = 0; j < model_.variable_count(); ++j) {
      if (model_.variable(j).type == VarType::kContinuous) continue;
      const double v = x[static_cast<std::size_t>(j)];
      const double dist = std::abs(v - std::round(v));
      const double frac_score = std::min(v - std::floor(v),
                                         std::ceil(v) - v);
      if (dist > kIntegralityTolerance && frac_score > best_dist) {
        best = j;
        best_dist = frac_score;
      }
    }
    return best;
  }

  std::vector<double> round_integers(std::vector<double> x) const {
    for (int j = 0; j < model_.variable_count(); ++j) {
      if (model_.variable(j).type != VarType::kContinuous) {
        x[static_cast<std::size_t>(j)] =
            std::round(x[static_cast<std::size_t>(j)]);
      }
    }
    return x;
  }

  void try_rounding(const std::vector<double>& x) {
    offer_incumbent(round_integers(x));
  }

  void offer_incumbent(std::vector<double> x) {
    if (!model_.is_feasible(x)) return;
    const double value = model_.objective_value(x);
    if (!have_incumbent_ ||
        (maximize_ ? value > incumbent_value_ : value < incumbent_value_)) {
      incumbent_ = std::move(x);
      incumbent_value_ = value;
      have_incumbent_ = true;
    }
  }

  const Model& model_;
  const MipOptions& options_;
  bool maximize_;
  std::vector<double> incumbent_;
  double incumbent_value_ = 0.0;
  bool have_incumbent_ = false;
};

/// Solves a model presolve has already reduced.
MipResult solve_reduced(const Model& model, const MipOptions& options) {
  if (!model.has_integer_variables()) {
    // Pure LP: translate the result.
    const LpResult lp = solve_lp(model);
    MipResult r;
    r.nodes_explored = 1;
    r.pivots = lp.iterations;
    switch (lp.status) {
      case LpStatus::kOptimal:
        r.status = MipStatus::kOptimal;
        r.objective = lp.objective;
        r.best_bound = lp.objective;
        r.x = lp.x;
        break;
      case LpStatus::kInfeasible:
        r.status = MipStatus::kInfeasible;
        break;
      case LpStatus::kUnbounded:
        r.status = MipStatus::kUnbounded;
        break;
      case LpStatus::kIterationLimit:
        r.status = MipStatus::kNoSolutionFound;
        break;
    }
    return r;
  }
  BranchAndBound solver(model, options);
  return solver.run();
}

}  // namespace

MipResult solve_mip(const Model& model, const MipOptions& options) {
  PresolveResult pre = presolve(model);
  if (pre.infeasible) {
    MipResult r;
    r.status = MipStatus::kInfeasible;
    return r;
  }
  MipOptions inner = options;
  // Project the warm start into the reduced space; drop it when it
  // contradicts a presolve fixing.
  if (options.warm_start &&
      options.warm_start->size() ==
          static_cast<std::size_t>(model.variable_count())) {
    bool consistent = true;
    for (std::size_t j = 0; j < pre.is_fixed.size(); ++j) {
      if (pre.is_fixed[j] &&
          std::abs((*options.warm_start)[j] - pre.fixed_value[j]) > 1e-6) {
        consistent = false;
        break;
      }
    }
    if (consistent) {
      std::vector<double> reduced_ws;
      reduced_ws.reserve(pre.original_index.size());
      for (int orig : pre.original_index) {
        reduced_ws.push_back(
            (*options.warm_start)[static_cast<std::size_t>(orig)]);
      }
      inner.warm_start = std::move(reduced_ws);
    } else {
      inner.warm_start.reset();
    }
  }
  MipResult r = solve_reduced(pre.reduced, inner);
  // Objective contribution of the variables presolve fixed.
  double fixed_obj = 0.0;
  for (std::size_t j = 0; j < pre.is_fixed.size(); ++j) {
    if (pre.is_fixed[j]) {
      fixed_obj +=
          model.variable(static_cast<int>(j)).objective * pre.fixed_value[j];
    }
  }
  if (r.has_solution()) {
    r.x = pre.restore(r.x);
    r.objective = model.objective_value(r.x);
  }
  if (r.status != MipStatus::kInfeasible &&
      r.status != MipStatus::kUnbounded) {
    r.best_bound += fixed_obj;
  }
  return r;
}

}  // namespace pm::milp
