#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/json.hpp"
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
                  ? format_value(h.upper_bounds()[i])
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

std::string MetricsRegistry::to_json(int indent) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  util::JsonWriter w(out, indent);
  w.begin_array();
  for (const auto& [key, entry] : entries_) {
    w.begin_object();
    w.key("name").string(key.first);
    if (!key.second.empty()) {
      w.key("labels").begin_object();
      for (const auto& [k, v] : entry.labels) w.key(k).string(v);
      w.end_object();
    }
    switch (entry.kind) {
      case Kind::kCounter:
        w.key("type").string("counter");
        w.key("value").number(static_cast<double>(entry.counter->value()));
        break;
      case Kind::kGauge:
        w.key("type").string("gauge");
        w.key("value").number(entry.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        w.key("type").string("histogram");
        w.key("count").number(static_cast<double>(h.count()));
        w.key("sum").number(h.sum());
        w.key("upper_bounds").begin_array();
        for (double b : h.upper_bounds()) w.number(b);
        w.end_array();
        w.key("bucket_counts").begin_array();
        for (std::uint64_t c : h.bucket_counts()) {
          w.number(static_cast<double>(c));
        }
        w.end_array();
        break;
      }
    }
    w.end_object();
  }
  w.end_array();
  return out;
}

}  // namespace pm::obs
