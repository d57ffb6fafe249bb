// Observability context and CLI wiring.
//
// A Context bundles the deterministic sinks — the simulated-clock event
// tracer and the metrics registry — that a simulation harness owns and
// threads through its components. The leveled Logger is process-global
// (obs/log.hpp).
//
// parse_obs_flags() gives every program that owns a Context the same
// flag vocabulary on top of util::CliArgs:
//   --trace-out=FILE     Chrome trace_event JSON (chrome://tracing,
//                        Perfetto)
//   --trace-jsonl=FILE   JSONL structured event log
//   --metrics-out=FILE   Prometheus text exposition
//   --metrics-json=FILE  metrics as JSON
//   --log-level=LEVEL    quiet|error|warn|info|debug
// A program with no Context calls apply_log_level_flag() and takes only
// the last one; it warns about the other four as unrecognized. Either
// call ends a program's flag handling: it warns about every flag on the
// command line that nothing read, so it comes after every get_*.
//
// Determinism contract: trace and metrics files are byte-identical
// across runs with the same seed. A requested file that cannot be
// written logs "cannot write <what> to <path>" and the program exits 1;
// a long run checks its paths with check_writable() before it starts.
#pragma once

#include <functional>
#include <optional>
#include <ostream>
#include <string>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

namespace pm::obs {

/// Deterministic sinks owned by a harness (e.g. ctrl::ControlSimulation).
struct Context {
  Tracer tracer;
  MetricsRegistry metrics;
  /// Opt-in for per-message metrics (latency histograms). End-of-run
  /// summary metrics are always published, but hot-path observations
  /// stay behind this flag so a harness with observability left alone
  /// pays one branch per message and nothing more.
  bool detailed_metrics = false;
};

struct ObsOptions {
  std::optional<std::string> trace_out;     ///< Chrome trace JSON.
  std::optional<std::string> trace_jsonl;   ///< JSONL event log.
  std::optional<std::string> metrics_out;   ///< Prometheus text.
  std::optional<std::string> metrics_json;  ///< Metrics JSON.

  bool tracing_requested() const {
    return trace_out.has_value() || trace_jsonl.has_value();
  }
  /// Whether per-message (hot-path) instrumentation should be on: any
  /// trace or metrics sink was asked for.
  bool detailed_requested() const {
    return tracing_requested() || metrics_out.has_value() ||
           metrics_json.has_value();
  }
};

/// Parses the shared observability flags and applies --log-level to the
/// global logger, then warns about every unread flag. Unknown
/// --log-level values warn and keep the default.
ObsOptions parse_obs_flags(util::CliArgs& args);

/// Parses and applies only --log-level, for programs that own no
/// Context, then warns about every unread flag: the four trace/metrics
/// flags among them, instead of ignoring them.
void apply_log_level_flag(util::CliArgs& args);

/// Writes every requested trace/metrics file from `ctx` through
/// write_file. An unwritable path logs an error and the rest are still
/// written. Returns whether every requested file was written.
bool write_outputs(const ObsOptions& options, const Context& ctx);

/// The one way a program writes an output file: runs `body` on a fresh
/// stream for `path`. If the file cannot be opened or written, logs an
/// error and returns false; otherwise logs "<what> written to <path>".
bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body,
                const char* what);

/// Whether write_file could open `path` now, checked without changing
/// it: an existing file keeps its bytes, and a file the check creates is
/// removed again. Logs write_file's error when it cannot.
bool check_writable(const std::string& path, const char* what);

}  // namespace pm::obs
