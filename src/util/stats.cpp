#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pm::util {

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

BoxStats box_stats(std::span<const double> sample) {
  BoxStats s;
  s.count = sample.size();
  if (sample.empty()) return s;
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.q1 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.5);
  s.q3 = quantile_sorted(sorted, 0.75);
  s.mean = mean(sample);
  return s;
}

double mean(std::span<const double> sample) {
  if (sample.empty()) return 0.0;
  return sum(sample) / static_cast<double>(sample.size());
}

double sum(std::span<const double> sample) {
  return std::accumulate(sample.begin(), sample.end(), 0.0);
}

std::size_t bucket_index(std::span<const double> upper_bounds, double v) {
  // NaN belongs in the +Inf overflow bucket; lower_bound would place it
  // in bucket 0 (every `bound < NaN` comparison is false).
  if (std::isnan(v)) return upper_bounds.size();
  const auto it =
      std::lower_bound(upper_bounds.begin(), upper_bounds.end(), v);
  return static_cast<std::size_t>(it - upper_bounds.begin());
}

}  // namespace pm::util
