// Deterministic control-plane event tracer.
//
// Records structured events stamped with the *simulated* clock (never
// wall time), so two runs with the same seed produce byte-identical
// trace files. Events carry a category, a name, a track (a controller,
// the channel, the switch population — rendered as one timeline row
// each) and a small bag of typed args.
//
// Two export formats, both streamed by util::JsonWriter with no tree:
//  * JSONL — one JSON object per line, for grep/jq pipelines;
//  * Chrome trace_event JSON — loads in chrome://tracing and Perfetto;
//    instant events ("i") and complete spans ("X", e.g. one recovery
//    wave start->converged) with track-name metadata so timelines are
//    labeled.
//
// The tracer is a null sink by default: while disabled, record calls
// return after one branch and allocate nothing. Call sites are expected
// to guard arg construction with `if (tracer.enabled())`.
//
// Recording is mutex-guarded, so simulations driven from pool workers may
// share a tracer; event order is then worker interleaving (callers that
// need byte-identical traces keep one tracer per simulation, which is the
// layout every harness here uses).
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace pm::obs {

class Tracer {
 public:
  using Args = std::vector<std::pair<std::string, util::JsonValue>>;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Names a track ("timeline row") in the Chrome export; callable any
  /// time before writing. Unnamed tracks render as their number.
  void set_track_name(int track, std::string name);

  /// Point event at simulated time `ts_ms`.
  void instant(double ts_ms, std::string cat, std::string name, int track,
               Args args = {});

  /// Complete span [ts_ms, ts_ms + dur_ms] (Chrome "X"), e.g. one
  /// recovery wave; overlapping or superseded spans need no nesting.
  void complete(double ts_ms, double dur_ms, std::string cat,
                std::string name, int track, Args args = {});

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
  }

  /// One JSON object per line; every line parses standalone.
  void write_jsonl(std::ostream& out) const;

  /// Chrome trace_event "JSON Object Format": {"traceEvents": [...]}.
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Event {
    char phase;  // 'i' or 'X'
    double ts_ms;
    double dur_ms;  // 'X' only
    int track;
    std::string cat;
    std::string name;
    Args args;
  };

  void record(Event e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(e));
  }

  bool enabled_ = false;
  mutable std::mutex mutex_;  ///< Guards events_ and track_names_.
  std::vector<Event> events_;
  std::map<int, std::string> track_names_;
};

}  // namespace pm::obs
