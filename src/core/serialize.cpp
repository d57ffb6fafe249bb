#include "core/serialize.hpp"

namespace pm::core {

using util::JsonValue;

JsonValue plan_to_json(const RecoveryPlan& plan) {
  JsonValue out = JsonValue::object();
  out["algorithm"] = plan.algorithm;
  out["whole_switch_control"] = plan.whole_switch_control;
  out["middle_layer_ms"] = plan.middle_layer_ms;
  out["solve_seconds"] = plan.solve_seconds;
  out["proven_optimal"] = plan.proven_optimal;
  if (!plan.note.empty()) out["note"] = plan.note;

  JsonValue& mapping = out["mapping"] = JsonValue::array();
  for (const auto& [sw, ctrl] : plan.mapping) {
    JsonValue entry = JsonValue::object();
    entry["switch"] = sw;
    entry["controller"] = ctrl;
    mapping.push_back(std::move(entry));
  }

  JsonValue& assignments = out["sdn_assignments"] = JsonValue::array();
  for (const Assignment& a : plan.sdn_assignments) {
    JsonValue entry = JsonValue::object();
    entry["switch"] = a.sw;
    entry["flow"] = a.flow;
    if (a.controller >= 0) entry["controller"] = a.controller;
    assignments.push_back(std::move(entry));
  }
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
  out["algorithm"] = m.algorithm;
  out["least_programmability"] = m.least_programmability;
  out["total_programmability"] = m.total_programmability;
  out["recoverable_flows"] = static_cast<double>(m.recoverable_flow_count);
  out["recovered_flows"] = static_cast<double>(m.recovered_flow_count);
  out["recovered_fraction"] = m.recovered_flow_fraction;
  out["offline_switches"] = static_cast<double>(m.offline_switch_count);
  out["recovered_switches"] = static_cast<double>(m.recovered_switch_count);
  out["used_control_resource"] = m.used_control_resource;
  out["available_control_resource"] = m.available_control_resource;
  out["total_overhead_ms"] = m.total_overhead_ms;
  out["per_flow_overhead_ms"] = m.per_flow_overhead_ms;
  out["ideal_total_delay_ms"] = m.ideal_total_delay_ms;
  out["solve_seconds"] = m.solve_seconds;

  JsonValue& box = out["programmability"] = JsonValue::object();
  box["min"] = m.programmability.min;
  box["q1"] = m.programmability.q1;
  box["median"] = m.programmability.median;
  box["q3"] = m.programmability.q3;
  box["max"] = m.programmability.max;
  box["mean"] = m.programmability.mean;
  box["count"] = static_cast<double>(m.programmability.count);

  JsonValue& loads = out["controller_load"] = JsonValue::object();
  for (const auto& [j, load] : m.controller_load) {
    loads[std::to_string(j)] = load;
  }
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

void write_plan(util::JsonWriter& w, const RecoveryPlan& plan) {
  w.begin_object();
  w.key("algorithm").string(plan.algorithm);
  w.key("whole_switch_control").boolean(plan.whole_switch_control);
  w.key("middle_layer_ms").number(plan.middle_layer_ms);
  w.key("solve_seconds").number(plan.solve_seconds);
  w.key("proven_optimal").boolean(plan.proven_optimal);
  if (!plan.note.empty()) w.key("note").string(plan.note);

  w.key("mapping").begin_array();
  for (const auto& [sw, ctrl] : plan.mapping) {
    w.int_object({{"switch", sw}, {"controller", ctrl}});
  }
  w.end_array();

  w.key("sdn_assignments").begin_array();
  for (const auto& [sw, flow, ctrl] : plan.sdn_assignments) {
    if (ctrl < 0) {
      w.int_object({{"switch", sw}, {"flow", flow}});
    } else {
      w.int_object({{"switch", sw}, {"flow", flow}, {"controller", ctrl}});
    }
  }
  w.end_array();
  w.end_object();
}

void write_metrics(util::JsonWriter& w, const RecoveryMetrics& m) {
  w.begin_object();
  w.key("algorithm").string(m.algorithm);
  w.key("least_programmability")
      .number(static_cast<double>(m.least_programmability));
  w.key("total_programmability")
      .number(static_cast<double>(m.total_programmability));
  w.key("recoverable_flows")
      .number(static_cast<double>(m.recoverable_flow_count));
  w.key("recovered_flows").number(static_cast<double>(m.recovered_flow_count));
  w.key("recovered_fraction").number(m.recovered_flow_fraction);
  w.key("offline_switches")
      .number(static_cast<double>(m.offline_switch_count));
  w.key("recovered_switches")
      .number(static_cast<double>(m.recovered_switch_count));
  w.key("used_control_resource").number(m.used_control_resource);
  w.key("available_control_resource").number(m.available_control_resource);
  w.key("total_overhead_ms").number(m.total_overhead_ms);
  w.key("per_flow_overhead_ms").number(m.per_flow_overhead_ms);
  w.key("ideal_total_delay_ms").number(m.ideal_total_delay_ms);
  w.key("solve_seconds").number(m.solve_seconds);

  w.key("programmability").begin_object();
  w.key("min").number(m.programmability.min);
  w.key("q1").number(m.programmability.q1);
  w.key("median").number(m.programmability.median);
  w.key("q3").number(m.programmability.q3);
  w.key("max").number(m.programmability.max);
  w.key("mean").number(m.programmability.mean);
  w.key("count").number(static_cast<double>(m.programmability.count));
  w.end_object();

  w.key("controller_load").begin_object();
  for (const auto& [j, load] : m.controller_load) {
    w.key(std::to_string(j)).number(load);
  }
  w.end_object();
  w.end_object();
}

}  // namespace

std::string write_case_report(const std::string& label,
                              const RecoveryPlan& plan,
                              const RecoveryMetrics& metrics) {
  std::string out;
  // A mapping or assignment object takes 25-45 bytes; the rest is small.
  out.reserve(1024 + 40 * (plan.mapping.size() + plan.sdn_assignments.size()));
  util::JsonWriter w(out);
  w.begin_object();
  w.key("case").string(label);
  write_plan(w.key("plan"), plan);
  write_metrics(w.key("metrics"), metrics);
  w.end_object();
  out.shrink_to_fit();
  return out;
}

}  // namespace pm::core
