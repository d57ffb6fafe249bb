#include "obs/trace.hpp"

namespace pm::obs {

namespace {

void write_args(util::JsonWriter& w, const Tracer::Args& args) {
  w.key("args").begin_object();
  for (const auto& [key, value] : args) w.key(key).value(value);
  w.end_object();
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
  std::string line;
  for (const Event& e : events_) {
    line.clear();
    util::JsonWriter w(line);
    w.begin_object();
    w.key("ts_ms").number(e.ts_ms);
    w.key("ph").string(std::string_view(&e.phase, 1));
    if (e.phase == 'X') w.key("dur_ms").number(e.dur_ms);
    w.key("track").number(e.track);
    const auto named = track_names_.find(e.track);
    if (named != track_names_.end()) {
      w.key("track_name").string(named->second);
    }
    w.key("cat").string(e.cat);
    w.key("name").string(e.name);
    if (!e.args.empty()) write_args(w, e.args);
    w.end_object();
    line += '\n';
    out << line;
  }
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string text;  // Streamed out after each event.
  util::JsonWriter w(text, 2);
  w.begin_object();
  w.key("traceEvents").begin_array();

  // Track-name metadata first so viewers label rows before data arrives.
  for (const auto& [track, name] : track_names_) {
    w.begin_object();
    w.key("ph").string("M");
    w.key("name").string("thread_name");
    w.key("pid").number(1);
    w.key("tid").number(track);
    write_args(w, {{"name", name}});
    w.end_object();
  }

  for (const Event& e : events_) {
    w.begin_object();
    w.key("name").string(e.name);
    w.key("cat").string(e.cat);
    w.key("ph").string(std::string_view(&e.phase, 1));
    if (e.phase == 'i') w.key("s").string("t");  // scoped to its thread
    // trace_event timestamps are microseconds.
    w.key("ts").number(e.ts_ms * 1000.0);
    if (e.phase == 'X') w.key("dur").number(e.dur_ms * 1000.0);
    w.key("pid").number(1);
    w.key("tid").number(e.track);
    if (!e.args.empty()) write_args(w, e.args);
    w.end_object();
    out << text;
    text.clear();
  }

  w.end_array();
  w.key("displayTimeUnit").string("ms");
  w.end_object();
  out << text << "\n";
}

}  // namespace pm::obs
