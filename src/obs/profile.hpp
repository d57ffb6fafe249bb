// Scoped wall-clock profiling spans.
//
// OBS_SPAN("pm.balancing") at the top of a scope records the scope's
// wall-clock duration into the process-wide Profiler under that name
// (count / total / min / max, plus the nesting depth it was observed
// at). Instrumentation points live in the PM heuristic phases,
// Dijkstra, the simplex and branch-and-bound, and the simulation
// dispatch loop — the hot paths ROADMAP wants measured.
//
// The profiler is disabled by default: a disabled span costs one branch
// and never reads the clock, so instrumented code is safe on hot paths.
//
// Wall-clock data is inherently non-deterministic, so it is exported
// through its own file (--profile-out) and never mixed into the
// deterministic trace/metrics outputs.
//
// Thread-safety: record() is mutex-guarded and span nesting depth is
// thread-local, so spans firing inside pool workers aggregate correctly
// (their durations interleave into the shared stats; depth reflects each
// worker's own nesting).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "util/json.hpp"

namespace pm::obs {

namespace detail {
/// Mirrored from Profiler::enabled() so a disabled ScopedSpan is one
/// inlined load+branch — no call into profile.cpp, no static-init guard.
inline bool profiler_enabled = false;
/// Per-thread span nesting depth (1 = top level). Thread-local so spans
/// opened by concurrent pool workers never see each other's nesting.
inline thread_local int span_depth = 0;
}  // namespace detail

class Profiler {
 public:
  struct SpanStats {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    /// Maximum nesting depth this span was observed at (1 = top level).
    int max_depth = 0;
  };

  static Profiler& global();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) {
    enabled_ = on;
    detail::profiler_enabled = on;
  }

  void record(const char* name, double elapsed_ms, int depth);
  /// Nesting depth of the calling thread's open spans.
  int current_depth() const { return detail::span_depth; }

  /// Aggregated stats. Reference into the live map: only read it once the
  /// spans of interest have closed (tests and end-of-run reports).
  const std::map<std::string, SpanStats>& spans() const { return spans_; }
  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
  }

  /// JSON report, marked non-deterministic.
  util::JsonValue to_json() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;  ///< Guards spans_.
  std::map<std::string, SpanStats> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name), active_(detail::profiler_enabled) {
    if (active_) {
      depth_ = ++detail::span_depth;
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~ScopedSpan() {
    if (!active_) return;
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    Profiler::global().record(name_, elapsed_ms, depth_);
    --detail::span_depth;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool active_;
  int depth_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pm::obs

#define PM_OBS_CONCAT_INNER(a, b) a##b
#define PM_OBS_CONCAT(a, b) PM_OBS_CONCAT_INNER(a, b)
/// Profiles the enclosing scope under `name` (a string literal).
#define OBS_SPAN(name) \
  ::pm::obs::ScopedSpan PM_OBS_CONCAT(pm_obs_span_, __LINE__)(name)
