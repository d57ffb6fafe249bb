#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

namespace pmbench {

namespace {

/// About 64 MiB of spans; beyond it spans are counted as dropped, not
/// stored (the hit workload opens six spans per op at ~50k ops/s).
constexpr std::uint64_t kMaxSpans = 1'000'000;

thread_local const SpanRecord* t_current = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(buffers_mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
  }
  return *buffer;
}

void Tracer::record(const SpanRecord& span) {
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Buffer& buffer = local_buffer();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

std::vector<SpanRecord> Tracer::snapshot_after(std::uint64_t after_id) const {
  const std::lock_guard<std::mutex> lock(buffers_mutex_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      if (s.id > after_id) all.push_back(s);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return all;
}

bool Tracer::write_jsonl(const std::string& path,
                         std::size_t max_spans) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<SpanRecord> spans = snapshot();
  const std::size_t n = std::min(max_spans, spans.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"name\":\"" << json_escape(s.name)
        << "\",\"layer\":\"" << json_escape(s.layer)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"thread\":" << s.thread << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, const char* layer, std::uint64_t op,
                       std::uint64_t parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  outer_ = t_current;
  record_.id = tracer.next_id();
  record_.parent = parent != 0 ? parent : (outer_ ? outer_->id : 0);
  record_.op = op != 0 ? op : (outer_ ? outer_->op : 0);
  record_.name = name;
  record_.layer = layer;
  t_current = &record_;
  record_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  record_.end_ns = now_ns();
  t_current = outer_;
  Tracer::instance().record(record_);
}

TraceSummary summarize(const std::vector<SpanRecord>& spans) {
  TraceSummary summary;
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  std::unordered_set<std::uint64_t> ops;
  for (const SpanRecord& s : spans) {
    summary.durations_us[s.name].push_back(s.micros());
    if (s.parent != 0) children[s.parent].push_back(&s);
    if (s.op != 0) ops.insert(s.op);
  }
  summary.ops = ops.size();
  for (const SpanRecord& s : spans) {
    // Covered = union of the children's intervals clipped to the span;
    // children of one span may overlap when they ran on other threads.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const std::int64_t self = (s.end_ns - s.start_ns) - covered;
    summary.self_ms[s.layer] += static_cast<double>(self) / 1e6;
  }
  return summary;
}

}  // namespace pmbench
