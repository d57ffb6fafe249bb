#include "milp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>

#include "obs/profile.hpp"

namespace pm::milp {

std::string to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

enum class VarState { kBasic, kAtLower, kAtUpper, kFreeAtZero };

struct SparseEntry {
  int row = 0;
  double value = 0.0;
};

/// Internal solver working on the equality form with slacks + artificials.
class Simplex {
 public:
  Simplex(const Model& model, const SimplexOptions& options)
      : model_(model), options_(options) {
    options_.refactor_every = std::max(1, options_.refactor_every);
    build();
  }

  LpResult run() {
    LpResult result;
    // ---- Phase 1 (only when the slack basis is infeasible). ----
    if (need_phase1_) {
      set_phase1_costs();
      const LpStatus phase1 = iterate(result.iterations);
      if (phase1 == LpStatus::kIterationLimit) {
        result.status = phase1;
        return result;
      }
      if (phase1 == LpStatus::kUnbounded) {
        // Phase-1 objective is bounded below by 0; numerical noise.
        result.status = LpStatus::kIterationLimit;
        return result;
      }
      if (phase1_objective() > 1e-6) {
        result.status = LpStatus::kInfeasible;
        return result;
      }
    }
    // ---- Phase 2: original costs; artificials pinned to zero. ----
    set_phase2_costs();
    const LpStatus phase2 = iterate(result.iterations);
    if (phase2 != LpStatus::kOptimal) {
      result.status = phase2;
      return result;
    }
    result.status = LpStatus::kOptimal;
    result.x = extract_structural();
    result.objective = model_.objective_value(result.x);
    return result;
  }

 private:
  // ------------------------------------------------------------------
  // Problem construction.
  // ------------------------------------------------------------------
  void build() {
    m_ = model_.constraint_count();
    n_structural_ = model_.variable_count();
    const int total = n_structural_ + m_ /*slacks*/ + m_ /*artificials*/;
    cols_.resize(static_cast<std::size_t>(total));
    lb_.assign(static_cast<std::size_t>(total), 0.0);
    ub_.assign(static_cast<std::size_t>(total), kInfinity);
    cost_.assign(static_cast<std::size_t>(total), 0.0);
    state_.assign(static_cast<std::size_t>(total), VarState::kAtLower);
    b_.assign(static_cast<std::size_t>(m_), 0.0);

    const double sign = model_.objective_sense() == Objective::kMaximize
                            ? -1.0
                            : 1.0;
    for (int j = 0; j < n_structural_; ++j) {
      const Variable& v = model_.variable(j);
      lb_[static_cast<std::size_t>(j)] = v.lower;
      ub_[static_cast<std::size_t>(j)] = v.upper;
      objective_cost_of_[static_cast<std::size_t>(j)] = sign * v.objective;
      state_[static_cast<std::size_t>(j)] = resting_state(v.lower, v.upper);
    }
    for (int i = 0; i < m_; ++i) {
      const Constraint& c = model_.constraint(i);
      b_[static_cast<std::size_t>(i)] = c.rhs;
      for (const Term& t : c.terms) {
        cols_[static_cast<std::size_t>(t.var)].push_back({i, t.coeff});
      }
      // Slack column.
      const int s = n_structural_ + i;
      cols_[static_cast<std::size_t>(s)].push_back({i, 1.0});
      switch (c.sense) {
        case Sense::kLe:
          lb_[static_cast<std::size_t>(s)] = 0.0;
          ub_[static_cast<std::size_t>(s)] = kInfinity;
          break;
        case Sense::kGe:
          lb_[static_cast<std::size_t>(s)] = -kInfinity;
          ub_[static_cast<std::size_t>(s)] = 0.0;
          break;
        case Sense::kEq:
          lb_[static_cast<std::size_t>(s)] = 0.0;
          ub_[static_cast<std::size_t>(s)] = 0.0;
          break;
      }
      state_[static_cast<std::size_t>(s)] =
          resting_state(lb_[static_cast<std::size_t>(s)],
                        ub_[static_cast<std::size_t>(s)]);
    }

    // Initial basis. Rows whose slack can absorb the residual (given all
    // structural variables at their resting bounds) start with the slack
    // basic — the common case for models whose all-at-bounds point is
    // feasible, which then skips phase 1 entirely. Only rows the slack
    // cannot cover get an artificial, sign-adjusted to start nonnegative.
    basis_.resize(static_cast<std::size_t>(m_));
    std::vector<double> residual = b_;
    for (int j = 0; j < n_structural_; ++j) {
      const double xj = resting_value(j);
      if (xj == 0.0) continue;
      for (const SparseEntry& e : cols_[static_cast<std::size_t>(j)]) {
        residual[static_cast<std::size_t>(e.row)] -= e.value * xj;
      }
    }
    need_phase1_ = false;
    for (int i = 0; i < m_; ++i) {
      const int s = n_structural_ + i;
      const int a = n_structural_ + m_ + i;
      const double r = residual[static_cast<std::size_t>(i)];
      lb_[static_cast<std::size_t>(a)] = 0.0;
      ub_[static_cast<std::size_t>(a)] = kInfinity;
      if (r >= lb_[static_cast<std::size_t>(s)] - 1e-12 &&
          r <= ub_[static_cast<std::size_t>(s)] + 1e-12) {
        // Slack covers the row: slack basic, artificial nonbasic at 0.
        cols_[static_cast<std::size_t>(a)].push_back({i, 1.0});
        state_[static_cast<std::size_t>(s)] = VarState::kBasic;
        state_[static_cast<std::size_t>(a)] = VarState::kAtLower;
        basis_[static_cast<std::size_t>(i)] = s;
      } else {
        cols_[static_cast<std::size_t>(a)].push_back(
            {i, r >= 0 ? 1.0 : -1.0});
        state_[static_cast<std::size_t>(a)] = VarState::kBasic;
        basis_[static_cast<std::size_t>(i)] = a;
        need_phase1_ = true;
      }
    }
    // Initial basis inverse: basis columns are all +-e_i (slacks are e_i,
    // artificials are sign * e_i), so B^-1 is diagonal.
    const std::size_t mm =
        static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
    binv_.assign(mm, 0.0);
    row_cols_.resize(mm);
    row_len_.assign(static_cast<std::size_t>(m_), 1);
    for (int i = 0; i < m_; ++i) {
      const int bj = basis_[static_cast<std::size_t>(i)];
      binv_[idx(i, i)] = cols_[static_cast<std::size_t>(bj)][0].value;
      row_cols_[idx(i, 0)] = i;
    }
    stamp_.assign(static_cast<std::size_t>(m_), 0);
    y_.resize(static_cast<std::size_t>(m_));
    w_.resize(static_cast<std::size_t>(m_));
    compute_basic_values();
  }

  static VarState resting_state(double lb, double ub) {
    if (std::isfinite(lb)) return VarState::kAtLower;
    if (std::isfinite(ub)) return VarState::kAtUpper;
    return VarState::kFreeAtZero;
  }

  double resting_value(int j) const {
    switch (state_[static_cast<std::size_t>(j)]) {
      case VarState::kAtLower: return lb_[static_cast<std::size_t>(j)];
      case VarState::kAtUpper: return ub_[static_cast<std::size_t>(j)];
      case VarState::kFreeAtZero: return 0.0;
      case VarState::kBasic: break;
    }
    throw std::logic_error("resting_value called on basic variable");
  }

  std::size_t idx(int r, int c) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(m_) +
           static_cast<std::size_t>(c);
  }

  void set_phase1_costs() {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      cost_[static_cast<std::size_t>(n_structural_ + m_ + i)] = 1.0;
    }
  }

  void set_phase2_costs() {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (const auto& [j, c] : objective_cost_of_) cost_[j] = c;
    // Pin artificials to zero so they cannot re-enter with value > 0.
    for (int i = 0; i < m_; ++i) {
      const int a = n_structural_ + m_ + i;
      ub_[static_cast<std::size_t>(a)] = 0.0;
      if (state_[static_cast<std::size_t>(a)] != VarState::kBasic) {
        state_[static_cast<std::size_t>(a)] = VarState::kAtLower;
      }
    }
  }

  /// Sum of (basic) artificial values — zero iff the original problem is
  /// feasible. Nonbasic artificials rest at their lower bound 0.
  double phase1_objective() const {
    double obj = 0.0;
    for (int r = 0; r < m_; ++r) {
      const int j = basis_[static_cast<std::size_t>(r)];
      if (j >= n_structural_ + m_) {
        obj += std::max(0.0, xb_[static_cast<std::size_t>(r)]);
      }
    }
    return obj;
  }

  // ------------------------------------------------------------------
  // Linear algebra helpers.
  // ------------------------------------------------------------------

  /// xb = B^-1 (b - A_N x_N)
  void compute_basic_values() {
    std::vector<double> rhs = b_;
    const int total = static_cast<int>(cols_.size());
    for (int j = 0; j < total; ++j) {
      if (state_[static_cast<std::size_t>(j)] == VarState::kBasic) continue;
      const double xj = resting_value(j);
      if (xj == 0.0) continue;
      for (const SparseEntry& e : cols_[static_cast<std::size_t>(j)]) {
        rhs[static_cast<std::size_t>(e.row)] -= e.value * xj;
      }
    }
    xb_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int r = 0; r < m_; ++r) {
      double acc = 0.0;
      for (int k = 0; k < m_; ++k) {
        acc += binv_[idx(r, k)] * rhs[static_cast<std::size_t>(k)];
      }
      xb_[static_cast<std::size_t>(r)] = acc;
    }
  }

  /// Rebuilds binv_ in place from the basis columns by Gauss-Jordan with
  /// partial pivoting, then its row index. Each elimination step updates
  /// only the pivot row's nonzero columns. Returns false if the basis
  /// matrix is numerically singular.
  bool refactorize() {
    std::vector<double> mat(binv_.size(), 0.0);
    for (int c = 0; c < m_; ++c) {
      for (const SparseEntry& e :
           cols_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(c)])]) {
        mat[idx(e.row, c)] = e.value;
      }
    }
    std::vector<double>& inv = binv_;
    std::fill(inv.begin(), inv.end(), 0.0);
    for (int i = 0; i < m_; ++i) inv[idx(i, i)] = 1.0;

    std::vector<int> mat_cols, inv_cols, col_rows;
    for (int col = 0; col < m_; ++col) {
      // One pass down the column: its nonzero rows, and the pivot (the
      // largest entry on or below the diagonal).
      col_rows.clear();
      int pivot_row = col;
      double best = std::abs(mat[idx(col, col)]);
      for (int r = 0; r < m_; ++r) {
        const double v = std::abs(mat[idx(r, col)]);
        if (v == 0.0) continue;
        col_rows.push_back(r);
        if (r > col && v > best) {
          best = v;
          pivot_row = r;
        }
      }
      if (best < 1e-12) return false;
      if (pivot_row != col) {
        std::swap_ranges(&mat[idx(pivot_row, 0)], &mat[idx(pivot_row, 0)] + m_,
                         &mat[idx(col, 0)]);
        std::swap_ranges(&inv[idx(pivot_row, 0)], &inv[idx(pivot_row, 0)] + m_,
                         &inv[idx(col, 0)]);
      }
      const double pivot = mat[idx(col, col)];
      mat_cols.clear();
      inv_cols.clear();
      for (int c = 0; c < m_; ++c) {
        mat[idx(col, c)] /= pivot;
        inv[idx(col, c)] /= pivot;
        if (mat[idx(col, c)] != 0.0) mat_cols.push_back(c);
        if (inv[idx(col, c)] != 0.0) inv_cols.push_back(c);
      }
      for (int r : col_rows) {
        if (r == pivot_row) r = col;  // the rows swapped places
        else if (r == col) r = pivot_row;
        if (r == col) continue;
        const double f = mat[idx(r, col)];
        for (const int c : mat_cols) mat[idx(r, c)] -= f * mat[idx(col, c)];
        for (const int c : inv_cols) inv[idx(r, c)] -= f * inv[idx(col, c)];
      }
    }
    for (int r = 0; r < m_; ++r) index_row(r);
    return true;
  }

  /// Rebuilds row r's index from its nonzeros.
  void index_row(int r) {
    int len = 0;
    for (int c = 0; c < m_; ++c) {
      if (binv_[idx(r, c)] != 0.0) row_cols_[idx(r, len++)] = c;
    }
    row_len_[static_cast<std::size_t>(r)] = len;
  }

  /// Gives dense rows whose nonzeros cancelled back below m/8 an index.
  void resparsify() {
    for (int r = 0; r < m_; ++r) {
      if (row_len_[static_cast<std::size_t>(r)] != kDenseRow) continue;
      const double* row = &binv_[idx(r, 0)];
      int nnz = 0;
      for (int c = 0; c < m_; ++c) nnz += row[c] != 0.0;
      if (8 * nnz <= m_) index_row(r);
    }
  }

  // ------------------------------------------------------------------
  // The simplex loop (minimization).
  // ------------------------------------------------------------------
  LpStatus iterate(int& iteration_counter) {
    int degenerate_run = 0;
    while (true) {
      if (iteration_counter >= options_.max_iterations) {
        return LpStatus::kIterationLimit;
      }
      ++iteration_counter;
      if (iteration_counter % options_.refactor_every == 0) {
        if (!refactorize()) return LpStatus::kIterationLimit;
        compute_basic_values();
      } else if (iteration_counter % 64 == 0) {
        resparsify();
      }

      // Simplex multipliers y = c_B^T B^-1.
      std::vector<double>& y = y_;
      std::fill(y.begin(), y.end(), 0.0);
      for (int r = 0; r < m_; ++r) {
        const double cb =
            cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
        if (cb == 0.0) continue;
        const double* row = &binv_[idx(r, 0)];
        const int len = row_len_[static_cast<std::size_t>(r)];
        if (len == kDenseRow) {
          for (int k = 0; k < m_; ++k) {
            y[static_cast<std::size_t>(k)] += cb * row[k];
          }
        } else {
          const int* cols = &row_cols_[idx(r, 0)];
          for (int t = 0; t < len; ++t) {
            y[static_cast<std::size_t>(cols[t])] += cb * row[cols[t]];
          }
        }
      }

      // Pricing.
      const bool bland = degenerate_run > 64;
      int entering = -1;
      int direction = 0;  // +1 = increase, -1 = decrease
      double best_score = options_.tol;
      const int total = static_cast<int>(cols_.size());
      for (int j = 0; j < total; ++j) {
        const VarState st = state_[static_cast<std::size_t>(j)];
        if (st == VarState::kBasic) continue;
        if (lb_[static_cast<std::size_t>(j)] ==
            ub_[static_cast<std::size_t>(j)]) {
          continue;  // fixed variable can never improve
        }
        double d = cost_[static_cast<std::size_t>(j)];
        for (const SparseEntry& e : cols_[static_cast<std::size_t>(j)]) {
          d -= y[static_cast<std::size_t>(e.row)] * e.value;
        }
        int dir = 0;
        if ((st == VarState::kAtLower || st == VarState::kFreeAtZero) &&
            d < -options_.tol) {
          dir = +1;
        } else if ((st == VarState::kAtUpper ||
                    st == VarState::kFreeAtZero) &&
                   d > options_.tol) {
          dir = -1;
        }
        if (dir == 0) continue;
        if (bland) {
          entering = j;
          direction = dir;
          break;
        }
        if (std::abs(d) > best_score) {
          best_score = std::abs(d);
          entering = j;
          direction = dir;
        }
      }
      if (entering < 0) return LpStatus::kOptimal;

      // w = B^-1 a_entering.
      std::vector<double>& w = w_;
      std::fill(w.begin(), w.end(), 0.0);
      for (const SparseEntry& e : cols_[static_cast<std::size_t>(entering)]) {
        for (int r = 0; r < m_; ++r) {
          w[static_cast<std::size_t>(r)] +=
              binv_[idx(r, e.row)] * e.value;
        }
      }

      // Ratio test: entering moves by t >= 0 in `direction`;
      // basic values change by -direction * t * w.
      double t_max = kInfinity;
      int leaving_row = -1;
      bool leaving_at_upper = false;
      for (int r = 0; r < m_; ++r) {
        const double delta = direction * w[static_cast<std::size_t>(r)];
        if (std::abs(delta) < 1e-11) continue;
        const int jb = basis_[static_cast<std::size_t>(r)];
        const double xr = xb_[static_cast<std::size_t>(r)];
        double limit;
        bool hits_upper;
        if (delta > 0) {  // basic value decreases toward its lower bound
          const double lo = lb_[static_cast<std::size_t>(jb)];
          if (!std::isfinite(lo)) continue;
          limit = (xr - lo) / delta;
          hits_upper = false;
        } else {  // basic value increases toward its upper bound
          const double hi = ub_[static_cast<std::size_t>(jb)];
          if (!std::isfinite(hi)) continue;
          limit = (xr - hi) / delta;
          hits_upper = true;
        }
        limit = std::max(limit, 0.0);
        if (limit < t_max - 1e-12 ||
            (limit < t_max + 1e-12 && leaving_row >= 0 &&
             std::abs(w[static_cast<std::size_t>(r)]) >
                 std::abs(w[static_cast<std::size_t>(leaving_row)]))) {
          t_max = limit;
          leaving_row = r;
          leaving_at_upper = hits_upper;
        }
      }
      // Bound flip of the entering variable itself.
      const double range = ub_[static_cast<std::size_t>(entering)] -
                           lb_[static_cast<std::size_t>(entering)];
      const bool can_flip = std::isfinite(range);
      if (can_flip && range <= t_max + 1e-12 &&
          state_[static_cast<std::size_t>(entering)] !=
              VarState::kFreeAtZero) {
        // Flip lower <-> upper; basis unchanged.
        for (int r = 0; r < m_; ++r) {
          xb_[static_cast<std::size_t>(r)] -=
              direction * range * w[static_cast<std::size_t>(r)];
        }
        state_[static_cast<std::size_t>(entering)] =
            state_[static_cast<std::size_t>(entering)] == VarState::kAtLower
                ? VarState::kAtUpper
                : VarState::kAtLower;
        degenerate_run = range < 1e-10 ? degenerate_run + 1 : 0;
        continue;
      }
      if (leaving_row < 0) return LpStatus::kUnbounded;

      degenerate_run = t_max < 1e-10 ? degenerate_run + 1 : 0;

      // Pivot: entering takes value resting + direction * t_max.
      const double entering_value =
          (state_[static_cast<std::size_t>(entering)] == VarState::kFreeAtZero
               ? 0.0
               : resting_value(entering)) +
          direction * t_max;
      for (int r = 0; r < m_; ++r) {
        xb_[static_cast<std::size_t>(r)] -=
            direction * t_max * w[static_cast<std::size_t>(r)];
      }
      const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
      state_[static_cast<std::size_t>(leaving)] =
          leaving_at_upper ? VarState::kAtUpper : VarState::kAtLower;
      if (!std::isfinite(
              leaving_at_upper ? ub_[static_cast<std::size_t>(leaving)]
                               : lb_[static_cast<std::size_t>(leaving)])) {
        state_[static_cast<std::size_t>(leaving)] = VarState::kFreeAtZero;
      }
      basis_[static_cast<std::size_t>(leaving_row)] = entering;
      state_[static_cast<std::size_t>(entering)] = VarState::kBasic;
      xb_[static_cast<std::size_t>(leaving_row)] = entering_value;

      update_inverse(leaving_row);
    }
  }

  /// B^-1 update for a pivot on `pivot_row`: divide the pivot row by
  /// w[pivot_row], then subtract w[r] times it from every other row r.
  /// Only the pivot row's nonzero columns take part; new ones join each
  /// touched sparse row's index. A row whose index would grow past m/8
  /// goes dense (see simplex.hpp).
  void update_inverse(int pivot_row) {
    const double pivot = w_[static_cast<std::size_t>(pivot_row)];
    double* prow = &binv_[idx(pivot_row, 0)];
    pivot_cols_.clear();
    const int plen = row_len_[static_cast<std::size_t>(pivot_row)];
    if (plen == kDenseRow) {
      for (int c = 0; c < m_; ++c) {
        prow[c] /= pivot;
        if (prow[c] != 0.0) pivot_cols_.push_back(c);
      }
    } else {
      const int* cols = &row_cols_[idx(pivot_row, 0)];
      for (int t = 0; t < plen; ++t) {
        prow[cols[t]] /= pivot;
        if (prow[cols[t]] != 0.0) pivot_cols_.push_back(cols[t]);
      }
    }
    const int nnz = static_cast<int>(pivot_cols_.size());
    for (int r = 0; r < m_; ++r) {
      if (r == pivot_row) continue;
      const double f = w_[static_cast<std::size_t>(r)];
      if (f == 0.0) continue;
      double* row = &binv_[idx(r, 0)];
      int& len = row_len_[static_cast<std::size_t>(r)];
      int* cols = &row_cols_[idx(r, 0)];
      if (len != kDenseRow) {
        // Mark the row's columns, dropping those that cancelled to zero.
        if (++stamp_token_ == 0) {
          std::fill(stamp_.begin(), stamp_.end(), 0u);
          stamp_token_ = 1;
        }
        int kept = 0;
        for (int t = 0; t < len; ++t) {
          if (row[cols[t]] == 0.0) continue;
          stamp_[static_cast<std::size_t>(cols[t])] = stamp_token_;
          cols[kept++] = cols[t];
        }
        len = 8 * (kept + nnz) > m_ ? kDenseRow : kept;
      }
      if (len == kDenseRow) {
        for (const int c : pivot_cols_) row[c] -= f * prow[c];
        continue;
      }
      for (const int c : pivot_cols_) {
        if (stamp_[static_cast<std::size_t>(c)] != stamp_token_) {
          cols[len++] = c;
        }
        row[c] -= f * prow[c];
      }
    }
  }

  std::vector<double> extract_structural() const {
    std::vector<double> x(static_cast<std::size_t>(n_structural_), 0.0);
    for (int j = 0; j < n_structural_; ++j) {
      if (state_[static_cast<std::size_t>(j)] != VarState::kBasic) {
        x[static_cast<std::size_t>(j)] =
            state_[static_cast<std::size_t>(j)] == VarState::kFreeAtZero
                ? 0.0
                : (state_[static_cast<std::size_t>(j)] == VarState::kAtLower
                       ? lb_[static_cast<std::size_t>(j)]
                       : ub_[static_cast<std::size_t>(j)]);
      }
    }
    for (int r = 0; r < m_; ++r) {
      const int j = basis_[static_cast<std::size_t>(r)];
      if (j < n_structural_) {
        x[static_cast<std::size_t>(j)] = xb_[static_cast<std::size_t>(r)];
      }
    }
    // Snap to bounds to clean up numerical fuzz.
    for (int j = 0; j < n_structural_; ++j) {
      auto& v = x[static_cast<std::size_t>(j)];
      v = std::clamp(v, lb_[static_cast<std::size_t>(j)],
                     ub_[static_cast<std::size_t>(j)]);
    }
    return x;
  }

  const Model& model_;
  SimplexOptions options_;
  int m_ = 0;
  int n_structural_ = 0;
  std::vector<std::vector<SparseEntry>> cols_;
  std::vector<double> lb_, ub_, cost_, b_, xb_;
  // Dense row-major basis inverse. Sparse row r lists, in row_cols_[r*m,
  // r*m + row_len_[r]), a superset of its nonzero columns; every other
  // entry of the row is an exact zero. row_len_[r] == kDenseRow marks a
  // row without an index.
  static constexpr int kDenseRow = -1;
  std::vector<double> binv_;
  std::vector<int> row_cols_, row_len_;
  std::vector<std::uint32_t> stamp_;  // merge marks, one per column
  std::uint32_t stamp_token_ = 0;
  std::vector<int> pivot_cols_;
  std::vector<double> y_, w_;  // per-iteration scratch
  std::vector<VarState> state_;
  std::vector<int> basis_;
  std::map<std::size_t, double> objective_cost_of_;
  bool need_phase1_ = true;
};

}  // namespace

LpResult solve_lp(const Model& model, const SimplexOptions& options) {
  OBS_SPAN("milp.simplex");
  if (model.constraint_count() == 0) {
    // Pure bound optimization.
    LpResult r;
    r.status = LpStatus::kOptimal;
    r.x.resize(static_cast<std::size_t>(model.variable_count()));
    const double sign =
        model.objective_sense() == Objective::kMaximize ? -1.0 : 1.0;
    for (int j = 0; j < model.variable_count(); ++j) {
      const Variable& v = model.variable(j);
      const double c = sign * v.objective;
      double val = 0.0;
      if (c > 0) {
        val = v.lower;
      } else if (c < 0) {
        val = v.upper;
      } else {
        val = std::isfinite(v.lower) ? v.lower
                                     : (std::isfinite(v.upper) ? v.upper : 0.0);
      }
      if (!std::isfinite(val)) {
        r.status = LpStatus::kUnbounded;
        return r;
      }
      r.x[static_cast<std::size_t>(j)] = val;
    }
    r.objective = model.objective_value(r.x);
    return r;
  }
  Simplex solver(model, options);
  return solver.run();
}

}  // namespace pm::milp
