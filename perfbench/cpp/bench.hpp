// Shared types of the repository benchmark: run options, the measured
// window of operations, the result a workload returns, and the
// statistics every workload reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace pmbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}
inline Clock::time_point after_seconds(Clock::time_point from, double s) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Latencies in log-spaced buckets 0.5% wide: constant memory however
/// many ops a run completes (so peak RSS measures the program, not the
/// benchmark's sample store), quantiles within 0.5%.
class LatencyHistogram {
 public:
  void add(double ms);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Quantile q in [0, 1] in ms, interpolated inside its bucket; 0 when
  /// empty.
  double quantile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// One round of a workload: a whole pass over its inputs, or for the
/// service hits one second on fresh connections.
struct Slice {
  LatencyHistogram latencies;  ///< Successful ops only.
  double seconds = 0.0;
};

/// One measured window of operations, kept as a run of slices: its
/// figures are the medians of the slices' own figures, so a slow stretch
/// on a shared host does not move them unless it covers half the window.
struct Window {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
  std::vector<Slice> slices;
  /// Workers that ran side by side, each timing its own slices; the
  /// throughput is a slice's rate times this.
  int workers = 1;
  /// First few failure messages, for the human-readable report.
  std::vector<std::string> failures;

  void fail(const std::string& why);
  /// Adds the counts and failures of `part` (one thread's share of the
  /// current slice) and its latencies to the last slice.
  void absorb(Window&& part);
};

struct WindowStats {
  double throughput_ops_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// With three or more slices: the median over slices of each slice's
/// successful ops per second (times the workers), p50 and p99; else the
/// figures of the whole window.
WindowStats window_stats(const Window& window);

/// What a workload hands back to main(): metric name -> value for the
/// end-to-end and the per-layer set; main() attaches the units.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  void count(const Window& window);
  void fail(const std::string& why);
};

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> sample, double q);
double mean(const std::vector<double>& sample);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Runs `setup` `reps` times and returns the median wall time in
/// seconds. `teardown` runs untimed between repetitions; the last
/// repetition's state is what the workload keeps.
double median_setup_seconds(int reps, const std::function<void()>& setup,
                            const std::function<void()>& teardown);

/// Runs `window_fn` untimed for a warm-up, then measured for `seconds`;
/// counts both windows' ops into `result` and returns the measured one.
Window measure(double seconds, const std::function<Window(double)>& window_fn,
               Result& result);

/// Fills the end-to-end metrics every workload reports from the
/// measured window.
void fill_end_to_end(const Window& window, double setup_s,
                     double programmability_total, Result& result);

/// After the same warm-up, runs `window_fn` untraced over the first half
/// of the run and traced over the second, counts the ops into `result`,
/// and records each layer's self time per traced op
/// (layer.<name>.self_ms_per_op, from the traced window's spans) and the
/// throughput difference as the tracing overhead. Returns the traced
/// window; tracing is off again on return.
Window run_traced_pair(double seconds,
                       const std::function<Window(double)>& window_fn,
                       Result& result);

/// Median / mean duration (us) of the spans named `name`; 0 when none.
double median_us(const TraceSummary& summary, const std::string& name);
double mean_us(const TraceSummary& summary, const std::string& name);

Result run_serve_hits(const Options& options);
Result run_serve_misses(const Options& options);
Result run_chaos(const Options& options);
Result run_optimal(const Options& options);

}  // namespace pmbench
