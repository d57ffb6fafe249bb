#include "core/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <string_view>
#include <utility>

namespace pm::core {

using util::JsonValue;

JsonValue plan_to_json(const RecoveryPlan& plan) {
  JsonValue out = JsonValue::object();
  out["algorithm"] = JsonValue(plan.algorithm);
  out["whole_switch_control"] = JsonValue(plan.whole_switch_control);
  out["middle_layer_ms"] = JsonValue(plan.middle_layer_ms);
  out["solve_seconds"] = JsonValue(plan.solve_seconds);
  out["proven_optimal"] = JsonValue(plan.proven_optimal);
  if (!plan.note.empty()) out["note"] = JsonValue(plan.note);

  JsonValue mapping = JsonValue::array();
  for (const auto& [sw, ctrl] : plan.mapping) {
    JsonValue entry = JsonValue::object();
    entry["switch"] = JsonValue(sw);
    entry["controller"] = JsonValue(ctrl);
    mapping.push_back(std::move(entry));
  }
  out["mapping"] = std::move(mapping);

  JsonValue assignments = JsonValue::array();
  for (const Assignment& a : plan.sdn_assignments) {
    JsonValue entry = JsonValue::object();
    entry["switch"] = JsonValue(a.sw);
    entry["flow"] = JsonValue(a.flow);
    if (a.controller >= 0) entry["controller"] = JsonValue(a.controller);
    assignments.push_back(std::move(entry));
  }
  out["sdn_assignments"] = std::move(assignments);
  return out;
}

RecoveryPlan plan_from_json(const util::JsonValue& json) {
  try {
    RecoveryPlan plan;
    plan.algorithm = json.at("algorithm").as_string();
    plan.whole_switch_control = json.at("whole_switch_control").as_bool();
    plan.middle_layer_ms = json.at("middle_layer_ms").as_number();
    plan.solve_seconds = json.at("solve_seconds").as_number();
    plan.proven_optimal = json.at("proven_optimal").as_bool();
    if (json.contains("note")) plan.note = json.at("note").as_string();
    const JsonValue& mapping = json.at("mapping");
    for (std::size_t i = 0; i < mapping.size(); ++i) {
      const JsonValue& entry = mapping.at(i);
      plan.mapping[entry.at("switch").as_int()] =
          entry.at("controller").as_int();
    }
    const JsonValue& assignments = json.at("sdn_assignments");
    plan.sdn_assignments.reserve(assignments.size());
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      const JsonValue& entry = assignments.at(i);
      plan.sdn_assignments.push_back(
          {entry.at("switch").as_int(), entry.at("flow").as_int(),
           entry.contains("controller") ? entry.at("controller").as_int()
                                        : -1});
    }
    sort_assignments(plan);
    return plan;
  } catch (const std::logic_error& e) {
    // Covers both type mismatches and std::out_of_range (missing keys).
    throw std::runtime_error(std::string("malformed plan JSON: ") +
                             e.what());
  }
}

JsonValue metrics_to_json(const RecoveryMetrics& m) {
  JsonValue out = JsonValue::object();
  out["algorithm"] = JsonValue(m.algorithm);
  out["least_programmability"] = JsonValue(m.least_programmability);
  out["total_programmability"] = JsonValue(m.total_programmability);
  out["recoverable_flows"] =
      JsonValue(static_cast<std::int64_t>(m.recoverable_flow_count));
  out["recovered_flows"] =
      JsonValue(static_cast<std::int64_t>(m.recovered_flow_count));
  out["recovered_fraction"] = JsonValue(m.recovered_flow_fraction);
  out["offline_switches"] =
      JsonValue(static_cast<std::int64_t>(m.offline_switch_count));
  out["recovered_switches"] =
      JsonValue(static_cast<std::int64_t>(m.recovered_switch_count));
  out["used_control_resource"] = JsonValue(m.used_control_resource);
  out["available_control_resource"] =
      JsonValue(m.available_control_resource);
  out["total_overhead_ms"] = JsonValue(m.total_overhead_ms);
  out["per_flow_overhead_ms"] = JsonValue(m.per_flow_overhead_ms);
  out["ideal_total_delay_ms"] = JsonValue(m.ideal_total_delay_ms);
  out["solve_seconds"] = JsonValue(m.solve_seconds);

  JsonValue box = JsonValue::object();
  box["min"] = JsonValue(m.programmability.min);
  box["q1"] = JsonValue(m.programmability.q1);
  box["median"] = JsonValue(m.programmability.median);
  box["q3"] = JsonValue(m.programmability.q3);
  box["max"] = JsonValue(m.programmability.max);
  box["mean"] = JsonValue(m.programmability.mean);
  box["count"] = JsonValue(static_cast<std::int64_t>(
      m.programmability.count));
  out["programmability"] = std::move(box);

  JsonValue loads = JsonValue::object();
  for (const auto& [j, load] : m.controller_load) {
    loads[std::to_string(j)] = JsonValue(load);
  }
  out["controller_load"] = std::move(loads);
  return out;
}

JsonValue case_report_to_json(const std::string& label,
                              const RecoveryPlan& plan,
                              const RecoveryMetrics& metrics) {
  JsonValue out = JsonValue::object();
  out["case"] = JsonValue(label);
  out["plan"] = plan_to_json(plan);
  out["metrics"] = metrics_to_json(metrics);
  return out;
}

namespace {

/// Streams JSON members in order; `first_` is true right after an
/// opening bracket, so the next member or element takes no comma.
class ReportWriter {
 public:
  explicit ReportWriter(std::string& out) : out_(out) {}

  void open(char bracket) {
    out_ += bracket;
    first_ = true;
  }
  void close(char bracket) {
    out_ += bracket;
    first_ = false;
  }
  /// Starts the next member: comma if needed, then `"key":`. `name` is
  /// a literal that needs no escaping.
  void key(const char* name) {
    next();
    out_ += '"';
    out_ += name;
    out_ += "\":";
  }
  /// key() for a computed name.
  void escaped_key(std::string_view name) {
    next();
    util::write_escaped(out_, name);
    out_ += ':';
  }
  /// Starts the next array element.
  void next() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void number(double v) { util::write_number(out_, v); }
  void string(std::string_view s) { util::write_escaped(out_, s); }
  void boolean(bool b) { out_ += b ? "true" : "false"; }

  void member(const char* name, double v) {
    key(name);
    number(v);
  }

  /// The next array element, an object of at most three integer members
  /// with names of at most 16 characters, formatted on the stack and
  /// appended once. Integers take the spelling write_number gives them.
  void int_object(
      std::initializer_list<std::pair<std::string_view, int>> members) {
    char buf[128];
    char* at = buf;
    if (!first_) *at++ = ',';
    first_ = false;
    char separator = '{';
    for (const auto& [name, v] : members) {
      *at++ = separator;
      separator = ',';
      *at++ = '"';
      at = std::copy(name.begin(), name.end(), at);
      *at++ = '"';
      *at++ = ':';
      at = std::to_chars(at, buf + sizeof buf, v).ptr;
    }
    *at++ = '}';
    out_.append(buf, at);
  }

 private:
  std::string& out_;
  bool first_ = true;
};

void write_plan(ReportWriter& w, const RecoveryPlan& plan) {
  w.open('{');
  w.key("algorithm");
  w.string(plan.algorithm);
  w.key("whole_switch_control");
  w.boolean(plan.whole_switch_control);
  w.member("middle_layer_ms", plan.middle_layer_ms);
  w.member("solve_seconds", plan.solve_seconds);
  w.key("proven_optimal");
  w.boolean(plan.proven_optimal);
  if (!plan.note.empty()) {
    w.key("note");
    w.string(plan.note);
  }

  w.key("mapping");
  w.open('[');
  for (const auto& [sw, ctrl] : plan.mapping) {
    w.int_object({{"switch", sw}, {"controller", ctrl}});
  }
  w.close(']');

  w.key("sdn_assignments");
  w.open('[');
  for (const auto& [sw, flow, ctrl] : plan.sdn_assignments) {
    if (ctrl < 0) {
      w.int_object({{"switch", sw}, {"flow", flow}});
    } else {
      w.int_object({{"switch", sw}, {"flow", flow}, {"controller", ctrl}});
    }
  }
  w.close(']');
  w.close('}');
}

void write_metrics(ReportWriter& w, const RecoveryMetrics& m) {
  w.open('{');
  w.key("algorithm");
  w.string(m.algorithm);
  w.member("least_programmability",
           static_cast<double>(m.least_programmability));
  w.member("total_programmability",
           static_cast<double>(m.total_programmability));
  w.member("recoverable_flows", static_cast<double>(m.recoverable_flow_count));
  w.member("recovered_flows", static_cast<double>(m.recovered_flow_count));
  w.member("recovered_fraction", m.recovered_flow_fraction);
  w.member("offline_switches", static_cast<double>(m.offline_switch_count));
  w.member("recovered_switches",
           static_cast<double>(m.recovered_switch_count));
  w.member("used_control_resource", m.used_control_resource);
  w.member("available_control_resource", m.available_control_resource);
  w.member("total_overhead_ms", m.total_overhead_ms);
  w.member("per_flow_overhead_ms", m.per_flow_overhead_ms);
  w.member("ideal_total_delay_ms", m.ideal_total_delay_ms);
  w.member("solve_seconds", m.solve_seconds);

  w.key("programmability");
  w.open('{');
  w.member("min", m.programmability.min);
  w.member("q1", m.programmability.q1);
  w.member("median", m.programmability.median);
  w.member("q3", m.programmability.q3);
  w.member("max", m.programmability.max);
  w.member("mean", m.programmability.mean);
  w.member("count", static_cast<double>(m.programmability.count));
  w.close('}');

  w.key("controller_load");
  w.open('{');
  for (const auto& [j, load] : m.controller_load) {
    w.escaped_key(std::to_string(j));
    w.number(load);
  }
  w.close('}');
  w.close('}');
}

}  // namespace

std::string write_case_report(const std::string& label,
                              const RecoveryPlan& plan,
                              const RecoveryMetrics& metrics) {
  std::string out;
  // A mapping or assignment object takes 25-45 bytes; the rest is small.
  out.reserve(1024 + 40 * (plan.mapping.size() + plan.sdn_assignments.size()));
  ReportWriter w(out);
  w.open('{');
  w.key("case");
  w.string(label);
  w.key("plan");
  write_plan(w, plan);
  w.key("metrics");
  write_metrics(w, metrics);
  w.close('}');
  out.shrink_to_fit();
  return out;
}

}  // namespace pm::core
