#include "obs/trace.hpp"

namespace pm::obs {

namespace {

util::JsonValue args_object(const Tracer::Args& args) {
  util::JsonValue obj = util::JsonValue::object();
  for (const auto& [key, value] : args) obj[key] = value;
  return obj;
}

}  // namespace

void Tracer::set_track_name(int track, std::string name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  track_names_[track] = std::move(name);
}

void Tracer::instant(double ts_ms, std::string cat, std::string name,
                     int track, Args args) {
  if (!enabled_) return;
  record({'i', ts_ms, 0.0, track, std::move(cat), std::move(name),
          std::move(args)});
}

void Tracer::complete(double ts_ms, double dur_ms, std::string cat,
                      std::string name, int track, Args args) {
  if (!enabled_) return;
  record({'X', ts_ms, dur_ms, track, std::move(cat), std::move(name),
          std::move(args)});
}

void Tracer::write_jsonl(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Event& e : events_) {
    util::JsonValue line = util::JsonValue::object();
    line["ts_ms"] = e.ts_ms;
    line["ph"] = std::string(1, e.phase);
    if (e.phase == 'X') line["dur_ms"] = e.dur_ms;
    line["track"] = e.track;
    const auto named = track_names_.find(e.track);
    if (named != track_names_.end()) line["track_name"] = named->second;
    line["cat"] = e.cat;
    line["name"] = e.name;
    if (!e.args.empty()) line["args"] = args_object(e.args);
    out << line.to_string() << "\n";
  }
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  util::JsonValue events = util::JsonValue::array();

  // Track-name metadata first so viewers label rows before data arrives.
  for (const auto& [track, name] : track_names_) {
    util::JsonValue meta = util::JsonValue::object();
    meta["ph"] = "M";
    meta["name"] = "thread_name";
    meta["pid"] = 1;
    meta["tid"] = track;
    util::JsonValue args = util::JsonValue::object();
    args["name"] = name;
    meta["args"] = std::move(args);
    events.push_back(std::move(meta));
  }

  for (const Event& e : events_) {
    util::JsonValue ev = util::JsonValue::object();
    ev["name"] = e.name;
    ev["cat"] = e.cat;
    ev["ph"] = std::string(1, e.phase);
    if (e.phase == 'i') ev["s"] = "t";  // instant scoped to its thread
    // trace_event timestamps are microseconds.
    ev["ts"] = e.ts_ms * 1000.0;
    if (e.phase == 'X') ev["dur"] = e.dur_ms * 1000.0;
    ev["pid"] = 1;
    ev["tid"] = e.track;
    if (!e.args.empty()) ev["args"] = args_object(e.args);
    events.push_back(std::move(ev));
  }

  util::JsonValue doc = util::JsonValue::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  out << doc.to_string(2) << "\n";
}

}  // namespace pm::obs
