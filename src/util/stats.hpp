// Descriptive statistics used by the evaluation harness.
//
// The paper's Figs. 4(a), 5(a) and 6(a) are box plots of per-flow path
// programmability; BoxStats carries exactly the five numbers such a plot
// shows (min, Q1, median, Q3, max) plus mean/count so the benches can print
// the same series in text form.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pm::util {

/// Five-number summary (plus mean) of a sample, as drawn by a box plot.
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::size_t count = 0;

  friend bool operator==(const BoxStats&, const BoxStats&) = default;
};

/// Computes the five-number summary of `sample`. Quartiles use linear
/// interpolation between order statistics (type-7, the numpy default).
/// An empty sample yields an all-zero summary with count == 0.
BoxStats box_stats(std::span<const double> sample);

/// Linear-interpolated quantile `q` in [0, 1] of `sorted`, which must be
/// sorted ascending and non-empty.
double quantile_sorted(std::span<const double> sorted, double q);

double mean(std::span<const double> sample);

double sum(std::span<const double> sample);

/// Index of the fixed-bucket histogram bucket holding `v`: the first i
/// with v <= upper_bounds[i] (bounds ascending), or upper_bounds.size()
/// for the implicit +Inf overflow bucket. NaN lands in the overflow
/// bucket. The observability histograms (obs/metrics) bucket by this
/// rule.
std::size_t bucket_index(std::span<const double> upper_bounds, double v);

}  // namespace pm::util
