#include "milp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

/// Reduced-cost tolerance for pricing an entering variable.
constexpr double kPricingTol = 1e-7;

enum class VarState { kBasic, kAtLower, kAtUpper, kFreeAtZero };

/// One nonzero of a sparse vector: its index (a constraint row or a
/// basis position, as each array says) and value.
struct Entry {
  int index = 0;
  double value = 0.0;
};

/// Smallest pivot magnitude the factorization accepts.
constexpr double kSingularTol = 1e-12;
/// Threshold partial pivoting: a factorization pivot must be at least
/// this fraction of the largest entry in its active column.
constexpr double kThreshold = 0.1;
/// The Markowitz search stops after this many columns with an eligible
/// entry.
constexpr int kMarkowitzColumns = 4;
/// A simplex pivot below this fraction of the largest entry in its
/// FTRAN'd column forces a refactorization before the next iteration.
constexpr double kEtaPivotTol = 1e-7;

/// The basis matrix B (column p is the constraint column of the variable
/// basic in position p) as a sparse LU factorization of the basis at the
/// last refresh, B0, times one product-form eta matrix per pivot since:
///
///     B0 = L_0 ... L_{m-1} U,       B = B0 E_0 ... E_{t-1}.
///
/// Step k of the factorization pivots on (row r_k, position p_k): L_k
/// holds its multipliers (column r_k), and U's row r_k its off-diagonal
/// entries, stored both by step (for BTRAN) and by position (for
/// FTRAN). E_t replaces position p of the basis by the FTRAN'd entering
/// column w. Both solves skip the factor columns whose multiplier is an
/// exact zero.
class BasisFactor {
 public:
  /// Factorizes the basis whose position p holds column
  /// `columns[basis[p]]`. Returns false if it is numerically singular.
  bool factorize(const std::vector<std::vector<Entry>>& columns,
                 const std::vector<int>& basis) {
    m_ = static_cast<int>(basis.size());
    const std::size_t m = basis.size();
    pivot_row_.assign(m, -1);
    pivot_pos_.assign(m, -1);
    pivot_value_.assign(m, 0.0);
    urow_start_.assign(1, 0);
    urow_.clear();
    l_row_.clear();
    l_start_.assign(1, 0);
    l_.clear();
    eta_pos_.clear();
    eta_pivot_.clear();
    eta_start_.assign(1, 0);
    eta_.clear();
    load_rows(columns, basis);
    // Singletons first: they pivot on B's own values and fill nothing.
    int k = 0;
    for (; k < m_; ++k) {
      const int peeled = peel_singleton(k, columns, basis);
      if (peeled < 0) return false;
      if (peeled == 0) break;
    }
    if (k < m_) load_bump();
    for (; k < m_; ++k) {
      int r = -1;
      int p = -1;
      if (!choose_pivot(r, p)) return false;
      eliminate(k, r, p);
    }
    // U by position: the off-diagonal entries of each column, keyed by
    // the constraint row of the step that owns them.
    ucol_start_.assign(m + 1, 0);
    for (const Entry& e : urow_) {
      ++ucol_start_[static_cast<std::size_t>(e.index) + 1];
    }
    for (std::size_t p = 0; p < m; ++p) ucol_start_[p + 1] += ucol_start_[p];
    ucol_.resize(urow_.size());
    std::vector<int> fill(ucol_start_.begin(), ucol_start_.end() - 1);
    for (std::size_t k = 0; k < m; ++k) {
      for (int t = urow_start_[k]; t < urow_start_[k + 1]; ++t) {
        const Entry& e = urow_[static_cast<std::size_t>(t)];
        int& next = fill[static_cast<std::size_t>(e.index)];
        ucol_[static_cast<std::size_t>(next++)] = {pivot_row_[k], e.value};
      }
    }
    return true;
  }

  /// Solves B x = rhs. `rhs` is indexed by constraint row and is
  /// overwritten; `x` is indexed by basis position.
  void ftran(std::vector<double>& rhs, std::vector<double>& x) const {
    for (std::size_t t = 0; t < l_row_.size(); ++t) {
      const double v = rhs[static_cast<std::size_t>(l_row_[t])];
      if (v == 0.0) continue;
      for (int i = l_start_[t]; i < l_start_[t + 1]; ++i) {
        const Entry& e = l_[static_cast<std::size_t>(i)];
        rhs[static_cast<std::size_t>(e.index)] -= e.value * v;
      }
    }
    for (std::size_t k = static_cast<std::size_t>(m_); k-- > 0;) {
      const std::size_t p = static_cast<std::size_t>(pivot_pos_[k]);
      const double v =
          rhs[static_cast<std::size_t>(pivot_row_[k])] / pivot_value_[k];
      x[p] = v;
      if (v == 0.0) continue;
      for (int i = ucol_start_[p]; i < ucol_start_[p + 1]; ++i) {
        const Entry& e = ucol_[static_cast<std::size_t>(i)];
        rhs[static_cast<std::size_t>(e.index)] -= e.value * v;
      }
    }
    for (std::size_t t = 0; t < eta_pos_.size(); ++t) {
      double& xp = x[static_cast<std::size_t>(eta_pos_[t])];
      if (xp == 0.0) continue;
      xp /= eta_pivot_[t];
      const double v = xp;
      for (int i = eta_start_[t]; i < eta_start_[t + 1]; ++i) {
        const Entry& e = eta_[static_cast<std::size_t>(i)];
        x[static_cast<std::size_t>(e.index)] -= e.value * v;
      }
    }
  }

  /// Solves y^T B = c^T. `c` is indexed by basis position and is
  /// overwritten; `y` is indexed by constraint row.
  void btran(std::vector<double>& c, std::vector<double>& y) const {
    for (std::size_t t = eta_pos_.size(); t-- > 0;) {
      const std::size_t p = static_cast<std::size_t>(eta_pos_[t]);
      double v = c[p];
      for (int i = eta_start_[t]; i < eta_start_[t + 1]; ++i) {
        const Entry& e = eta_[static_cast<std::size_t>(i)];
        v -= c[static_cast<std::size_t>(e.index)] * e.value;
      }
      c[p] = v / eta_pivot_[t];
    }
    for (std::size_t k = 0; k < static_cast<std::size_t>(m_); ++k) {
      const double v =
          c[static_cast<std::size_t>(pivot_pos_[k])] / pivot_value_[k];
      y[static_cast<std::size_t>(pivot_row_[k])] = v;
      if (v == 0.0) continue;
      for (int i = urow_start_[k]; i < urow_start_[k + 1]; ++i) {
        const Entry& e = urow_[static_cast<std::size_t>(i)];
        c[static_cast<std::size_t>(e.index)] -= e.value * v;
      }
    }
    for (std::size_t t = l_row_.size(); t-- > 0;) {
      double& yr = y[static_cast<std::size_t>(l_row_[t])];
      for (int i = l_start_[t]; i < l_start_[t + 1]; ++i) {
        const Entry& e = l_[static_cast<std::size_t>(i)];
        yr -= y[static_cast<std::size_t>(e.index)] * e.value;
      }
    }
  }

  /// Records the pivot that puts the column with FTRAN'd image `w` in
  /// basis position `p`. Returns false if w[p] is too small relative to
  /// the rest of w for the eta file to stay accurate.
  bool update(int p, const std::vector<double>& w) {
    double largest = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (w[i] == 0.0) continue;
      largest = std::max(largest, std::abs(w[i]));
      if (static_cast<int>(i) != p) eta_.push_back({static_cast<int>(i), w[i]});
    }
    const double pivot = w[static_cast<std::size_t>(p)];
    eta_pos_.push_back(p);
    eta_pivot_.push_back(pivot);
    eta_start_.push_back(static_cast<int>(eta_.size()));
    return std::abs(pivot) >= kEtaPivotTol * largest;
  }

 private:
  /// Lays B out by row, counts each row's and position's nonzeros and
  /// seeds the singleton queues.
  void load_rows(const std::vector<std::vector<Entry>>& columns,
                 const std::vector<int>& basis) {
    const std::size_t m = basis.size();
    row_count_.assign(m, 0);
    col_count_.assign(m, 0);
    for (std::size_t p = 0; p < m; ++p) {
      for (const Entry& e : columns[static_cast<std::size_t>(basis[p])]) {
        ++row_count_[static_cast<std::size_t>(e.index)];
        ++col_count_[p];
      }
    }
    brow_start_.assign(m + 1, 0);
    for (std::size_t i = 0; i < m; ++i) {
      brow_start_[i + 1] = brow_start_[i] + row_count_[i];
    }
    brow_.resize(static_cast<std::size_t>(brow_start_[m]));
    std::vector<int> fill(brow_start_.begin(), brow_start_.end() - 1);
    for (std::size_t p = 0; p < m; ++p) {
      for (const Entry& e : columns[static_cast<std::size_t>(basis[p])]) {
        int& next = fill[static_cast<std::size_t>(e.index)];
        brow_[static_cast<std::size_t>(next++)] = {static_cast<int>(p),
                                                   e.value};
      }
    }
    seed_singletons();
    row_done_.assign(m, 0);
    col_done_.assign(m, 0);
  }

  void seed_singletons() {
    row_single_.clear();
    col_single_.clear();
    for (int i = 0; i < m_; ++i) {
      const std::size_t iu = static_cast<std::size_t>(i);
      if (row_count_[iu] == 1) row_single_.push_back(i);
      if (col_count_[iu] == 1) col_single_.push_back(i);
    }
  }

  void record_pivot(int k, int r, int p, double value) {
    pivot_row_[static_cast<std::size_t>(k)] = r;
    pivot_pos_[static_cast<std::size_t>(k)] = p;
    pivot_value_[static_cast<std::size_t>(k)] = value;
    row_done_[static_cast<std::size_t>(r)] = 1;
    col_done_[static_cast<std::size_t>(p)] = 1;
  }

  /// Step k on a singleton of the part of B not yet pivoted: a position
  /// with one row left (U takes the row's other entries, L nothing), else
  /// a row with one position left whose entry passes the threshold test
  /// (L takes the position's other entries over it, U nothing). Neither
  /// changes a value, so both read B itself. Returns 1 after a pivot, 0
  /// if no singleton is left, -1 on a column that is numerically empty.
  int peel_singleton(int k,
                     const std::vector<std::vector<Entry>>& columns,
                     const std::vector<int>& basis) {
    while (!col_single_.empty()) {
      const int p = col_single_.back();
      col_single_.pop_back();
      if (col_done_[static_cast<std::size_t>(p)] ||
          col_count_[static_cast<std::size_t>(p)] != 1) {
        continue;
      }
      int r = -1;
      double a = 0.0;
      const int j = basis[static_cast<std::size_t>(p)];
      for (const Entry& e : columns[static_cast<std::size_t>(j)]) {
        if (row_done_[static_cast<std::size_t>(e.index)]) continue;
        r = e.index;
        a = e.value;
      }
      if (std::abs(a) < kSingularTol) return -1;
      record_pivot(k, r, p, a);
      for (int t = brow_start_[static_cast<std::size_t>(r)];
           t < brow_start_[static_cast<std::size_t>(r) + 1]; ++t) {
        const Entry& e = brow_[static_cast<std::size_t>(t)];
        if (col_done_[static_cast<std::size_t>(e.index)]) continue;
        urow_.push_back(e);
        if (--col_count_[static_cast<std::size_t>(e.index)] == 1) {
          col_single_.push_back(e.index);
        }
      }
      urow_start_.push_back(static_cast<int>(urow_.size()));
      return 1;
    }
    while (!row_single_.empty()) {
      const int r = row_single_.back();
      row_single_.pop_back();
      if (row_done_[static_cast<std::size_t>(r)] ||
          row_count_[static_cast<std::size_t>(r)] != 1) {
        continue;
      }
      Entry pivot;
      for (int t = brow_start_[static_cast<std::size_t>(r)];
           t < brow_start_[static_cast<std::size_t>(r) + 1]; ++t) {
        const Entry& e = brow_[static_cast<std::size_t>(t)];
        if (!col_done_[static_cast<std::size_t>(e.index)]) pivot = e;
      }
      const std::vector<Entry>& col = columns[static_cast<std::size_t>(
          basis[static_cast<std::size_t>(pivot.index)])];
      double largest = 0.0;
      for (const Entry& e : col) {
        if (!row_done_[static_cast<std::size_t>(e.index)]) {
          largest = std::max(largest, std::abs(e.value));
        }
      }
      const double a = std::abs(pivot.value);
      if (a < kSingularTol || a < kThreshold * largest) continue;
      record_pivot(k, r, pivot.index, pivot.value);
      urow_start_.push_back(static_cast<int>(urow_.size()));
      const std::size_t l_begin = l_.size();
      for (const Entry& e : col) {
        if (row_done_[static_cast<std::size_t>(e.index)]) continue;
        l_.push_back({e.index, e.value / pivot.value});
        if (--row_count_[static_cast<std::size_t>(e.index)] == 1) {
          row_single_.push_back(e.index);
        }
      }
      if (l_.size() > l_begin) {
        l_row_.push_back(r);
        l_start_.push_back(static_cast<int>(l_.size()));
      }
      return 1;
    }
    return 0;
  }

  /// Loads the rows and positions singletons left, the bump, into the
  /// active submatrix that elimination modifies.
  void load_bump() {
    const std::size_t m = static_cast<std::size_t>(m_);
    bump_col_.resize(m);
    bump_row_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      bump_col_[i].clear();
      bump_row_[i].clear();
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (row_done_[i]) continue;
      for (int t = brow_start_[i]; t < brow_start_[i + 1]; ++t) {
        const Entry& e = brow_[static_cast<std::size_t>(t)];
        if (col_done_[static_cast<std::size_t>(e.index)]) continue;
        bump_col_[static_cast<std::size_t>(e.index)].push_back(
            {static_cast<int>(i), e.value});
        bump_row_[i].push_back(e.index);
      }
    }
    bump_cols_.clear();
    for (std::size_t i = 0; i < m; ++i) {
      row_count_[i] = static_cast<int>(bump_row_[i].size());
      col_count_[i] = static_cast<int>(bump_col_[i].size());
      if (!col_done_[i]) bump_cols_.push_back(static_cast<int>(i));
    }
    seed_singletons();
    slot_.assign(m, -1);
  }

  /// Value of bump entry (r, p), 0 if there is none.
  double bump_value(int r, int p) const {
    for (const Entry& e : bump_col_[static_cast<std::size_t>(p)]) {
      if (e.index == r) return e.value;
    }
    return 0.0;
  }

  /// Largest magnitude in bump position p.
  double column_max(int p) const {
    double largest = 0.0;
    for (const Entry& e : bump_col_[static_cast<std::size_t>(p)]) {
      largest = std::max(largest, std::abs(e.value));
    }
    return largest;
  }

  /// Picks the next pivot in the bump: a column singleton, else a row
  /// singleton that passes the threshold test, else the eligible entry of
  /// least Markowitz count (r - 1)(c - 1), larger magnitude first on
  /// ties, over the first kMarkowitzColumns positions of fewest entries.
  bool choose_pivot(int& r, int& p) {
    while (!col_single_.empty()) {
      p = col_single_.back();
      col_single_.pop_back();
      if (col_done_[static_cast<std::size_t>(p)] ||
          col_count_[static_cast<std::size_t>(p)] != 1) {
        continue;
      }
      const Entry& e = bump_col_[static_cast<std::size_t>(p)][0];
      r = e.index;
      return std::abs(e.value) >= kSingularTol;
    }
    while (!row_single_.empty()) {
      r = row_single_.back();
      row_single_.pop_back();
      if (row_done_[static_cast<std::size_t>(r)] ||
          row_count_[static_cast<std::size_t>(r)] != 1) {
        continue;
      }
      for (const int j : bump_row_[static_cast<std::size_t>(r)]) {
        if (!col_done_[static_cast<std::size_t>(j)]) p = j;
      }
      const double a = std::abs(bump_value(r, p));
      if (a >= kSingularTol && a >= kThreshold * column_max(p)) return true;
    }
    // Drop pivoted positions from the bump's list, keeping its order.
    std::erase_if(bump_cols_, [&](int j) {
      return col_done_[static_cast<std::size_t>(j)] != 0;
    });
    int fewest = m_ + 1;
    for (const int j : bump_cols_) {
      fewest = std::min(fewest, col_count_[static_cast<std::size_t>(j)]);
    }
    int best_cost = -1;
    double best_abs = 0.0;
    int searched = 0;
    for (const int j : bump_cols_) {
      if (col_count_[static_cast<std::size_t>(j)] != fewest) continue;
      const double floor =
          std::max(kSingularTol, kThreshold * column_max(j));
      bool eligible = false;
      for (const Entry& e : bump_col_[static_cast<std::size_t>(j)]) {
        const double a = std::abs(e.value);
        if (a < floor) continue;
        eligible = true;
        const int cost = (fewest - 1) *
                         (row_count_[static_cast<std::size_t>(e.index)] - 1);
        if (best_cost < 0 || cost < best_cost ||
            (cost == best_cost && a > best_abs)) {
          best_cost = cost;
          best_abs = a;
          r = e.index;
          p = j;
        }
      }
      if (eligible && ++searched == kMarkowitzColumns) break;
    }
    return best_cost >= 0;
  }

  /// Factorization step k on bump pivot (r, p): the other entries of
  /// position p over the pivot become L_k, row r's other entries become
  /// U's row, and each position of row r loses row r and takes the
  /// update (and fill) from L_k's rows.
  void eliminate(int k, int r, int p) {
    const double pivot = bump_value(r, p);
    record_pivot(k, r, p, pivot);
    const std::size_t l_begin = l_.size();
    for (const Entry& e : bump_col_[static_cast<std::size_t>(p)]) {
      if (e.index == r) continue;
      --row_count_[static_cast<std::size_t>(e.index)];
      if (e.value != 0.0) l_.push_back({e.index, e.value / pivot});
    }
    for (const int q : bump_row_[static_cast<std::size_t>(r)]) {
      if (col_done_[static_cast<std::size_t>(q)]) continue;
      std::vector<Entry>& col = bump_col_[static_cast<std::size_t>(q)];
      double u = 0.0;
      for (std::size_t t = 0; t < col.size();) {
        if (col[t].index == r) {
          u = col[t].value;
          col[t] = col.back();
          col.pop_back();
          continue;
        }
        slot_[static_cast<std::size_t>(col[t].index)] = static_cast<int>(t);
        ++t;
      }
      if (u != 0.0) {
        urow_.push_back({q, u});
        for (std::size_t t = l_begin; t < l_.size(); ++t) {
          const Entry& l = l_[t];
          const int s = slot_[static_cast<std::size_t>(l.index)];
          if (s >= 0) {
            col[static_cast<std::size_t>(s)].value -= l.value * u;
          } else {
            col.push_back({l.index, -l.value * u});
            bump_row_[static_cast<std::size_t>(l.index)].push_back(q);
            ++row_count_[static_cast<std::size_t>(l.index)];
          }
        }
      }
      for (const Entry& e : col) slot_[static_cast<std::size_t>(e.index)] = -1;
      col_count_[static_cast<std::size_t>(q)] = static_cast<int>(col.size());
      if (col.size() == 1) col_single_.push_back(q);
    }
    urow_start_.push_back(static_cast<int>(urow_.size()));
    for (const Entry& e : bump_col_[static_cast<std::size_t>(p)]) {
      if (e.index != r &&
          row_count_[static_cast<std::size_t>(e.index)] == 1) {
        row_single_.push_back(e.index);
      }
    }
    if (l_.size() > l_begin) {
      l_row_.push_back(r);
      l_start_.push_back(static_cast<int>(l_.size()));
    }
  }

  int m_ = 0;
  // Factorization step k pivots on (pivot_row_[k], pivot_pos_[k]).
  std::vector<int> pivot_row_, pivot_pos_;
  std::vector<double> pivot_value_;
  // U's off-diagonal entries: by step, indexed by basis position, and by
  // basis position, indexed by the owning step's constraint row.
  std::vector<int> urow_start_, ucol_start_;
  std::vector<Entry> urow_, ucol_;
  // Nonempty L columns in step order: pivot row, then (row, multiplier).
  std::vector<int> l_row_, l_start_;
  std::vector<Entry> l_;
  // Eta file, one entry per pivot since the factorization: position,
  // pivot w[p] and the other nonzeros of w, by basis position.
  std::vector<int> eta_pos_, eta_start_;
  std::vector<double> eta_pivot_;
  std::vector<Entry> eta_;
  // Factorization scratch, kept for reuse: B by row, then the bump's
  // active submatrix, which elimination modifies.
  std::vector<int> brow_start_;
  std::vector<Entry> brow_;                 // by row: (position, value)
  // The bump by position, (row, value), and by row, the positions (some
  // of which may have been pivoted since).
  std::vector<std::vector<Entry>> bump_col_;
  std::vector<std::vector<int>> bump_row_;
  std::vector<int> row_count_, col_count_, row_single_, col_single_, slot_;
  std::vector<int> bump_cols_;  // positions in the bump, maybe pivoted
  std::vector<char> row_done_, col_done_;
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

    for (int j = 0; j < n_structural_; ++j) {
      const Variable& v = model_.variable(j);
      lb_[static_cast<std::size_t>(j)] = v.lower;
      ub_[static_cast<std::size_t>(j)] = v.upper;
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
      for (const Entry& e : cols_[static_cast<std::size_t>(j)]) {
        residual[static_cast<std::size_t>(e.index)] -= e.value * xj;
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
    y_.resize(static_cast<std::size_t>(m_));
    d_.resize(static_cast<std::size_t>(total));
    w_.resize(static_cast<std::size_t>(m_));
    row_work_.resize(static_cast<std::size_t>(m_));
    pos_work_.resize(static_cast<std::size_t>(m_));
    // The slack/artificial basis is diagonal, so this cannot fail.
    factor_.factorize(cols_, basis_);
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

  void set_phase1_costs() {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      cost_[static_cast<std::size_t>(n_structural_ + m_ + i)] = 1.0;
    }
  }

  void set_phase2_costs() {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    const double sign =
        model_.objective_sense() == Objective::kMaximize ? -1.0 : 1.0;
    for (int j = 0; j < n_structural_; ++j) {
      cost_[static_cast<std::size_t>(j)] = sign * model_.variable(j).objective;
    }
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
    std::vector<double>& rhs = row_work_;
    rhs = b_;
    const int total = static_cast<int>(cols_.size());
    for (int j = 0; j < total; ++j) {
      if (state_[static_cast<std::size_t>(j)] == VarState::kBasic) continue;
      const double xj = resting_value(j);
      if (xj == 0.0) continue;
      for (const Entry& e : cols_[static_cast<std::size_t>(j)]) {
        rhs[static_cast<std::size_t>(e.index)] -= e.value * xj;
      }
    }
    xb_.resize(static_cast<std::size_t>(m_));
    factor_.ftran(rhs, xb_);
  }

  // ------------------------------------------------------------------
  // The simplex loop (minimization).
  // ------------------------------------------------------------------
  LpStatus iterate(int& iteration_counter) {
    collect_priceable();
    int degenerate_run = 0;
    while (true) {
      if (iteration_counter >= options_.max_iterations) {
        return LpStatus::kIterationLimit;
      }
      ++iteration_counter;
      if (iteration_counter % options_.refactor_every == 0 ||
          refactor_due_) {
        if (!factor_.factorize(cols_, basis_)) {
          return LpStatus::kIterationLimit;
        }
        refactor_due_ = false;
        compute_basic_values();
      }

      // Simplex multipliers: y^T B = c_B^T.
      std::vector<double>& y = y_;
      for (std::size_t r = 0; r < basis_.size(); ++r) {
        pos_work_[r] = cost_[static_cast<std::size_t>(basis_[r])];
      }
      factor_.btran(pos_work_, y);

      // Pricing: d = c - A^T y by row, over the rows with a nonzero dual,
      // then Dantzig's rule over the priceable columns in ascending order.
      // Each d_j takes its terms in ascending row order, and a skipped
      // term y_i a_ij is a zero, so d_j has the bits of the column's own
      // dot product (up to the sign of a zero).
      std::copy(cost_.begin(), cost_.end(), d_.begin());
      const std::vector<Constraint>& rows = model_.constraints();
      for (int i = 0; i < m_; ++i) {
        const double yi = y[static_cast<std::size_t>(i)];
        if (yi == 0.0) continue;
        for (const Term& t : rows[static_cast<std::size_t>(i)].terms) {
          d_[static_cast<std::size_t>(t.var)] -= yi * t.coeff;
        }
        for (const int j : {n_structural_ + i, n_structural_ + m_ + i}) {
          d_[static_cast<std::size_t>(j)] -=
              yi * cols_[static_cast<std::size_t>(j)].front().value;
        }
      }
      const bool bland = degenerate_run > 64;
      int entering = -1;
      int direction = 0;  // +1 = increase, -1 = decrease
      double best_score = kPricingTol;
      for (const int j : priceable_) {
        const VarState st = state_[static_cast<std::size_t>(j)];
        const double d = d_[static_cast<std::size_t>(j)];
        int dir = 0;
        if ((st == VarState::kAtLower || st == VarState::kFreeAtZero) &&
            d < -kPricingTol) {
          dir = +1;
        } else if ((st == VarState::kAtUpper ||
                    st == VarState::kFreeAtZero) &&
                   d > kPricingTol) {
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
      std::fill(row_work_.begin(), row_work_.end(), 0.0);
      for (const Entry& e : cols_[static_cast<std::size_t>(entering)]) {
        row_work_[static_cast<std::size_t>(e.index)] = e.value;
      }
      factor_.ftran(row_work_, w);

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
      priceable_.erase(
          std::lower_bound(priceable_.begin(), priceable_.end(), entering));
      if (lb_[static_cast<std::size_t>(leaving)] !=
          ub_[static_cast<std::size_t>(leaving)]) {
        priceable_.insert(
            std::lower_bound(priceable_.begin(), priceable_.end(), leaving),
            leaving);
      }
      xb_[static_cast<std::size_t>(leaving_row)] = entering_value;

      refactor_due_ = !factor_.update(leaving_row, w);
    }
  }

  /// The columns pricing may pick, in ascending order: the nonbasic ones
  /// that are not fixed. A fixed column can never improve the objective.
  /// Bounds change only between phases, so each phase collects the list
  /// once and each pivot keeps it.
  void collect_priceable() {
    priceable_.clear();
    for (int j = 0; j < static_cast<int>(cols_.size()); ++j) {
      if (state_[static_cast<std::size_t>(j)] != VarState::kBasic &&
          lb_[static_cast<std::size_t>(j)] !=
              ub_[static_cast<std::size_t>(j)]) {
        priceable_.push_back(j);
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
  std::vector<std::vector<Entry>> cols_;
  std::vector<double> lb_, ub_, cost_, b_, xb_;
  BasisFactor factor_;
  bool refactor_due_ = false;  // set by a pivot too small for the eta file
  // Per-iteration scratch: y, the reduced costs d and w, and the solves'
  // inputs (by constraint row and by basis position), which the solves
  // overwrite.
  std::vector<double> y_, d_, w_, row_work_, pos_work_;
  std::vector<VarState> state_;
  std::vector<int> basis_;
  std::vector<int> priceable_;  // ascending; see collect_priceable()
  bool need_phase1_ = true;
};

}  // namespace

LpResult solve_lp(const Model& model, const SimplexOptions& options) {
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
