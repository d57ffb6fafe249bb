#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/stats.hpp"

namespace pm::obs {

namespace {

/// Prometheus sample values: integers render without a fraction so
/// counter lines read naturally; everything else gets a round-trippable
/// %.17g.
std::string format_value(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string format_bound(double b) { return format_value(b); }

}  // namespace

std::string format_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    out += value;
    out += "\"";
  }
  out += "}";
  return out;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {}

void Histogram::observe(double v) {
  ++counts_[util::bucket_index(bounds_, v)];
  ++count_;
  sum_ += v;
}

// Precondition: mutex_ held by the caller (the lazy metric construction
// that follows must happen under the same critical section).
MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, const std::string& help, const Labels& labels,
    Kind kind) {
  const Key key{name, format_labels(labels)};
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("metric '" + name +
                             "' re-registered with a different kind");
    }
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.help = help;
  entry.labels = labels;
  return entries_.emplace(key, std::move(entry)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, help, labels, Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help,
                              const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, help, labels, Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> upper_bounds,
                                      const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, help, labels, Kind::kHistogram);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *e.histogram;
}

const MetricsRegistry::Entry* MetricsRegistry::find(
    const std::string& name, const Labels& labels) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(Key{name, format_labels(labels)});
  return it == entries_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name,
                                             const Labels& labels) const {
  const Entry* e = find(name, labels);
  return e != nullptr && e->counter ? e->counter->value() : 0;
}

double MetricsRegistry::gauge_value(const std::string& name,
                                    const Labels& labels) const {
  const Entry* e = find(name, labels);
  return e != nullptr && e->gauge ? e->gauge->value() : 0.0;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 const Labels& labels) const {
  const Entry* e = find(name, labels);
  return e != nullptr ? e->histogram.get() : nullptr;
}

std::map<std::string, std::uint64_t> MetricsRegistry::counters_by_label(
    const std::string& name, const std::string& label_key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, entry] : entries_) {
    if (key.first != name || !entry.counter) continue;
    for (const auto& [k, v] : entry.labels) {
      if (k == label_key) {
        out[v] = entry.counter->value();
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string last_name;
  for (const auto& [key, entry] : entries_) {
    const std::string& name = key.first;
    if (name != last_name) {
      last_name = name;
      if (!entry.help.empty()) {
        out << "# HELP " << name << " " << entry.help << "\n";
      }
      const char* type = entry.kind == Kind::kCounter   ? "counter"
                         : entry.kind == Kind::kGauge   ? "gauge"
                                                        : "histogram";
      out << "# TYPE " << name << " " << type << "\n";
    }
    const std::string labels = key.second;
    switch (entry.kind) {
      case Kind::kCounter:
        out << name << labels << " " << entry.counter->value() << "\n";
        break;
      case Kind::kGauge:
        out << name << labels << " "
            << format_value(entry.gauge->value()) << "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
          cumulative += h.bucket_counts()[i];
          const std::string le =
              i < h.upper_bounds().size()
                  ? format_bound(h.upper_bounds()[i])
                  : "+Inf";
          Labels bucket_labels = entry.labels;
          bucket_labels.emplace_back("le", le);
          out << name << "_bucket" << format_labels(bucket_labels) << " "
              << cumulative << "\n";
        }
        out << name << "_sum" << labels << " " << format_value(h.sum())
            << "\n";
        out << name << "_count" << labels << " " << h.count() << "\n";
        break;
      }
    }
  }
}

util::JsonValue MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  util::JsonValue doc = util::JsonValue::array();
  for (const auto& [key, entry] : entries_) {
    util::JsonValue m = util::JsonValue::object();
    m["name"] = key.first;
    if (!key.second.empty()) {
      util::JsonValue labels = util::JsonValue::object();
      for (const auto& [k, v] : entry.labels) labels[k] = v;
      m["labels"] = std::move(labels);
    }
    switch (entry.kind) {
      case Kind::kCounter:
        m["type"] = "counter";
        m["value"] = static_cast<std::int64_t>(entry.counter->value());
        break;
      case Kind::kGauge:
        m["type"] = "gauge";
        m["value"] = entry.gauge->value();
        break;
      case Kind::kHistogram: {
        m["type"] = "histogram";
        const Histogram& h = *entry.histogram;
        m["count"] = static_cast<std::int64_t>(h.count());
        m["sum"] = h.sum();
        util::JsonValue bounds = util::JsonValue::array();
        for (double b : h.upper_bounds()) bounds.push_back(b);
        m["upper_bounds"] = std::move(bounds);
        util::JsonValue counts = util::JsonValue::array();
        for (std::uint64_t c : h.bucket_counts()) {
          counts.push_back(static_cast<std::int64_t>(c));
        }
        m["bucket_counts"] = std::move(counts);
        break;
      }
    }
    doc.push_back(std::move(m));
  }
  return doc;
}

}  // namespace pm::obs
