#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace pmbench {

namespace {

constexpr double kMinMs = 1e-4;  // 0.1 us: everything below is bucket 0.
constexpr double kGrowth = 1.005;

// Untimed load before every measured window. On the virtualized
// reference host the first seconds of a load pattern ran up to a third
// slower (on the loopback hits, up to three times slower for 15 s); a
// warm-up of the workload itself absorbs most of that and lets caches
// fill and lazy set-up finish.
constexpr double kWarmupSeconds = 5.0;

/// Adds each layer's self time per traced op (layer.<name>.self_ms_per_op).
void add_layer_self_time(const TraceSummary& summary, Result& result) {
  if (summary.ops == 0) return;
  for (const auto& [layer, ms] : summary.self_ms) {
    result.per_layer["layer." + layer + ".self_ms_per_op"] =
        ms / static_cast<double>(summary.ops);
  }
}

}  // namespace

void LatencyHistogram::add(double ms) {
  std::size_t i = 0;
  if (ms > kMinMs) {
    i = 1 + static_cast<std::size_t>(std::log(ms / kMinMs) /
                                     std::log(kGrowth));
  }
  if (i >= buckets_.size()) buckets_.resize(i + 1, 0);
  ++buckets_[i];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double c = static_cast<double>(buckets_[i]);
    if (c == 0.0 || before + c <= rank) {
      before += c;
      continue;
    }
    if (i == 0) return kMinMs;
    // Bucket i spans [lo, lo * kGrowth); place the rank geometrically
    // by its position among the bucket's ops.
    const double lo = kMinMs * std::pow(kGrowth, static_cast<double>(i - 1));
    const double frac = std::clamp((rank - before + 0.5) / c, 0.0, 1.0);
    return lo * std::pow(kGrowth, frac);
  }
  return kMinMs * std::pow(kGrowth, static_cast<double>(buckets_.size()));
}

void Window::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Window::absorb(Window&& part) {
  attempted += part.attempted;
  failed += part.failed;
  if (slices.empty()) slices.emplace_back();
  for (const Slice& s : part.slices) slices.back().latencies.merge(s.latencies);
  for (auto& f : part.failures) {
    if (failures.size() < 8) failures.push_back(std::move(f));
  }
}

WindowStats window_stats(const Window& window) {
  WindowStats s;
  if (window.slices.size() >= 3) {
    std::vector<double> rate, p50, p99;
    for (const Slice& slice : window.slices) {
      rate.push_back(slice.seconds > 0.0
                         ? static_cast<double>(slice.latencies.count()) /
                               slice.seconds
                         : 0.0);
      p50.push_back(slice.latencies.quantile(0.50));
      p99.push_back(slice.latencies.quantile(0.99));
    }
    s.throughput_ops_s = window.workers * quantile(rate, 0.5);
    s.p50_ms = quantile(p50, 0.5);
    s.p99_ms = quantile(p99, 0.5);
    return s;
  }
  LatencyHistogram all;
  for (const Slice& slice : window.slices) all.merge(slice.latencies);
  s.throughput_ops_s =
      window.seconds > 0.0
          ? static_cast<double>(all.count()) / window.seconds
          : 0.0;
  s.p50_ms = all.quantile(0.50);
  s.p99_ms = all.quantile(0.99);
  return s;
}

void Result::count(const Window& window) {
  attempted += window.attempted;
  failed += window.failed;
  for (const auto& f : window.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

void Result::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  return pm::util::quantile_sorted(sample, q);
}

double mean(const std::vector<double>& sample) {
  return sample.empty() ? 0.0 : pm::util::mean(sample);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double median_setup_seconds(int reps, const std::function<void()>& setup,
                            const std::function<void()>& teardown) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) {
      teardown();
      // Hand the freed heap back, so earlier repetitions do not add to
      // the peak RSS the run reports (glibc keeps it otherwise).
      malloc_trim(0);
    }
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return quantile(times, 0.5);
}

Window measure(double seconds, const std::function<Window(double)>& window_fn,
               Result& result) {
  result.count(window_fn(kWarmupSeconds));
  Window window = window_fn(seconds);
  result.count(window);
  return window;
}

void fill_end_to_end(const Window& window, double setup_s,
                     double programmability_total, Result& result) {
  const WindowStats s = window_stats(window);
  auto& m = result.end_to_end;
  m["setup_s"] = setup_s;
  m["throughput_ops_s"] = s.throughput_ops_s;
  m["latency_p50_ms"] = s.p50_ms;
  m["latency_p99_ms"] = s.p99_ms;
  m["ok_op_ratio"] = window.attempted > 0
                         ? static_cast<double>(window.attempted -
                                               window.failed) /
                               static_cast<double>(window.attempted)
                         : 0.0;
  m["peak_rss_mb"] = peak_rss_mb();
  m["programmability_total"] = programmability_total;
}

Window run_traced_pair(double seconds,
                       const std::function<Window(double)>& window_fn,
                       Result& result) {
  result.count(window_fn(kWarmupSeconds));
  Window plain = window_fn(seconds / 2.0);
  Tracer& tracer = Tracer::instance();
  const std::uint64_t before = tracer.last_id();
  tracer.set_enabled(true);
  Window traced = window_fn(seconds / 2.0);
  tracer.set_enabled(false);
  add_layer_self_time(summarize(tracer.snapshot_after(before)), result);
  result.count(plain);
  result.count(traced);
  const double untraced_rate = window_stats(plain).throughput_ops_s;
  const double traced_rate = window_stats(traced).throughput_ops_s;
  auto& m = result.per_layer;
  m["trace.untraced_throughput_ops_s"] = untraced_rate;
  m["trace.traced_throughput_ops_s"] = traced_rate;
  m["trace.overhead_ops_s"] = traced_rate - untraced_rate;
  return traced;
}

double median_us(const TraceSummary& summary, const std::string& name) {
  const auto it = summary.durations_us.find(name);
  return it == summary.durations_us.end() ? 0.0 : quantile(it->second, 0.5);
}

double mean_us(const TraceSummary& summary, const std::string& name) {
  const auto it = summary.durations_us.find(name);
  return it == summary.durations_us.end() ? 0.0 : mean(it->second);
}

}  // namespace pmbench
