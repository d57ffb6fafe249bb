#include "obs/profile.hpp"

#include <algorithm>

namespace pm::obs {

Profiler& Profiler::global() {
  static Profiler profiler;
  return profiler;
}

void Profiler::record(const char* name, double elapsed_ms, int depth) {
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanStats& s = spans_[name];
  if (s.count == 0) {
    s.min_ms = elapsed_ms;
    s.max_ms = elapsed_ms;
  } else {
    s.min_ms = std::min(s.min_ms, elapsed_ms);
    s.max_ms = std::max(s.max_ms, elapsed_ms);
  }
  ++s.count;
  s.total_ms += elapsed_ms;
  s.max_depth = std::max(s.max_depth, depth);
}

util::JsonValue Profiler::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  util::JsonValue doc = util::JsonValue::object();
  doc["deterministic"] = false;
  doc["unit"] = "ms";
  util::JsonValue spans = util::JsonValue::array();
  for (const auto& [name, s] : spans_) {
    util::JsonValue span = util::JsonValue::object();
    span["name"] = name;
    span["count"] = static_cast<std::int64_t>(s.count);
    span["total_ms"] = s.total_ms;
    span["mean_ms"] =
        s.count > 0 ? s.total_ms / static_cast<double>(s.count) : 0.0;
    span["min_ms"] = s.min_ms;
    span["max_ms"] = s.max_ms;
    span["max_depth"] = s.max_depth;
    spans.push_back(std::move(span));
  }
  doc["spans"] = std::move(spans);
  return doc;
}

}  // namespace pm::obs
