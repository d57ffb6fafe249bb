// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a layer of the program (svc, core, sdwan, ...). A span has
// a name, a layer, start and end on the steady clock, the span that
// caused it (its parent) and the id of the operation it belongs to, so
// every span of one request, chaos cell or Optimal case shares an id.
// Spans stay in per-thread buffers while the run is timed; analysis and
// the trace file are produced after it.
//
// Disabled (the untraced run), a ScopedSpan costs one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pmbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::uint64_t op = 0;      ///< Operation id shared by its spans.
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every span recorded so far (call while no span is open).
  std::vector<SpanRecord> snapshot() const { return snapshot_after(0); }
  /// Every span opened after span `after_id` (call while none is open).
  std::vector<SpanRecord> snapshot_after(std::uint64_t after_id) const;
  /// Spans dropped because the in-memory cap was reached.
  std::uint64_t dropped() const { return dropped_.load(); }

  /// Writes up to `max_spans` spans as JSON lines; returns false when
  /// the file cannot be written.
  bool write_jsonl(const std::string& path, std::size_t max_spans) const;

  /// Id of the latest span opened; spans opened later have larger ids.
  std::uint64_t last_id() const { return next_id_.load(); }

  // Internal: used by ScopedSpan.
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const SpanRecord& span);

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
  };
  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span. The parent defaults to the innermost span open on this
/// thread, and the op id to that span's op; pass both explicitly when
/// the cause runs on another thread.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, std::uint64_t op = 0,
             std::uint64_t parent = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  bool active_ = false;
  SpanRecord record_;
  const SpanRecord* outer_ = nullptr;
};

/// Per-name durations and per-layer self time over a set of spans.
struct TraceSummary {
  /// Span name -> durations in microseconds.
  std::map<std::string, std::vector<double>> durations_us;
  /// Layer -> total self time in milliseconds: each span's duration
  /// minus the part of its interval its children cover.
  std::map<std::string, double> self_ms;
  /// Distinct op ids among the spans.
  std::size_t ops = 0;
};

TraceSummary summarize(const std::vector<SpanRecord>& spans);

}  // namespace pmbench
