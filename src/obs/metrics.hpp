// Metrics registry: counters, gauges and fixed-bucket histograms.
//
// Metric identity is (name, labels); the registry hands out stable
// references so hot paths can cache a Counter*/Histogram* once and skip
// the map lookup per event. Iteration order is sorted by identity, so
// exports are deterministic regardless of registration order.
//
// All values recorded here must derive from simulation state (counts,
// simulated-clock durations) — never wall time — so identically-seeded
// runs export byte-identical files. Wall-clock timings (a plan's
// solve_seconds, the benchmark's own tracer) never enter the registry.
//
// Exports: Prometheus text exposition format and JSON.
//
// Thread-safety: Counter and Gauge updates are atomic (relaxed — they are
// independent statistics, not synchronization), and the registry guards its
// series map with a mutex, so pool workers running whole scenarios may
// register and bump series concurrently. Histogram::observe mutates three
// fields and stays single-writer: each simulation owns its obs::Context,
// and the scenario pool runs one simulation per worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace pm::obs {

/// Label set of a metric series, e.g. {{"kind", "heartbeat"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// NOT safe for concurrent observe() — see the threading note above.
class Histogram {
 public:
  /// `upper_bounds` must be ascending; an implicit +Inf bucket follows.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  /// last entry is the +Inf bucket.
  const std::vector<std::uint64_t>& bucket_counts() const {
    return counts_;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Find-or-create. The reference stays valid for the registry's
  /// lifetime. Re-registering an existing series with a different kind
  /// throws std::logic_error; help/buckets of the first registration win.
  Counter& counter(const std::string& name, const std::string& help = "",
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help = "",
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upper_bounds,
                       const Labels& labels = {});

  /// Read-side views (0 / empty when the series does not exist).
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels = {}) const;
  double gauge_value(const std::string& name,
                     const Labels& labels = {}) const;
  /// The histogram series, or nullptr when it does not exist. Unlike
  /// histogram(), registers nothing.
  const Histogram* find_histogram(const std::string& name,
                                  const Labels& labels = {}) const;
  /// Values of `label_key` -> counter value, over every series named
  /// `name`.
  std::map<std::string, std::uint64_t> counters_by_label(
      const std::string& name, const std::string& label_key) const;

  std::size_t series_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// Prometheus text exposition format.
  void write_prometheus(std::ostream& out) const;

  /// The JSON export: `indent` > 0 pretty-prints, as JsonWriter does.
  std::string to_json(int indent = 0) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // Key: (name, canonical label serialization) — sorted, so exports are
  // deterministic.
  using Key = std::pair<std::string, std::string>;

  Entry& find_or_create(const std::string& name, const std::string& help,
                        const Labels& labels, Kind kind);
  const Entry* find(const std::string& name, const Labels& labels) const;

  /// Guards entries_ (the map, not the metric values — node handles are
  /// stable, so the Counter&/Histogram& references handed out stay valid
  /// and are updated lock-free).
  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
};

/// Canonical `{k="v",...}` rendering (empty string for no labels).
std::string format_labels(const Labels& labels);

}  // namespace pm::obs
