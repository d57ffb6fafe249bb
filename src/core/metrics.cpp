#include "core/metrics.hpp"

#include <algorithm>
#include <limits>
#include <span>

namespace pm::core {

RecoveryMetrics evaluate_plan(const sdwan::FailureState& state,
                              const RecoveryPlan& plan) {
  const sdwan::Network& net = state.network();
  RecoveryMetrics m;
  m.algorithm = plan.algorithm;
  m.solve_seconds = plan.solve_seconds;
  m.offline_switch_count = state.offline_switches().size();
  m.recoverable_flow_count = state.recoverable_flows().size();
  m.ideal_total_delay_ms = state.ideal_total_delay();

  // Flat working arrays indexed by id: h^l per flow, capacity units per
  // controller.
  std::vector<std::int64_t> h(static_cast<std::size_t>(net.flow_count()), 0);
  std::vector<double> load(static_cast<std::size_t>(net.controller_count()),
                           0.0);
  std::vector<char> loaded(load.size(), 0);
  for (sdwan::ControllerId j : state.active_controllers()) {
    loaded[static_cast<std::size_t>(j)] = 1;
  }
  // Charges `units` control units on controller j (range-checked by
  // delay_ms) at switch sw; returns the overhead they cost.
  const auto charge = [&](sdwan::SwitchId sw, sdwan::ControllerId j,
                          double units) {
    const double per_unit = net.delay_ms(sw, j) + plan.middle_layer_ms;
    load[static_cast<std::size_t>(j)] += units;
    loaded[static_cast<std::size_t>(j)] = 1;
    return units * per_unit;
  };

  if (plan.whole_switch_control) {
    for (const auto& [sw, ctrl] : plan.mapping) {
      m.total_overhead_ms +=
          charge(sw, ctrl, static_cast<double>(state.gamma(sw)));
    }
  }
  // One pass over Y, in (switch, flow) order. The switch's opportunities
  // ascend by flow too, so a cursor over them reads p without a path
  // search; pairs that are not opportunities fall back to diversity().
  sdwan::SwitchId last_switch = -1;
  sdwan::ControllerId switch_controller = -1;
  std::span<const sdwan::FailureState::SwitchOpportunity> at_switch;
  std::size_t cursor = 0;
  for (const auto& [sw, flow, controller] : plan.sdn_assignments) {
    // Switches in actual use (prune semantics: mapped + >= 1 assignment).
    if (sw != last_switch) {
      ++m.recovered_switch_count;
      last_switch = sw;
      switch_controller = plan.controller_of(sw);
      at_switch = state.opportunities_at(sw);  // range-checks sw
      cursor = 0;
    }
    while (cursor < at_switch.size() && at_switch[cursor].flow < flow) {
      ++cursor;
    }
    const std::int64_t p =
        cursor < at_switch.size() && at_switch[cursor].flow == flow
            ? at_switch[cursor].p
            : net.diversity(flow, sw);  // range-checks flow
    h[static_cast<std::size_t>(flow)] += p;
    if (plan.whole_switch_control) continue;
    // plan.controller_of(), with the mapping read once per switch.
    const sdwan::ControllerId j = controller >= 0 ? controller
                                                  : switch_controller;
    if (j >= 0) m.total_overhead_ms += charge(sw, j, 1.0);
  }

  std::vector<double> recovered_h;
  recovered_h.reserve(state.recoverable_flows().size());
  m.least_programmability = std::numeric_limits<std::int64_t>::max();
  for (sdwan::FlowId l : state.recoverable_flows()) {
    const std::int64_t hl = h[static_cast<std::size_t>(l)];
    m.least_programmability = std::min(m.least_programmability, hl);
    if (hl > 0) {
      recovered_h.push_back(static_cast<double>(hl));
      m.total_programmability += hl;
      ++m.recovered_flow_count;
    }
  }
  if (state.recoverable_flows().empty()) m.least_programmability = 0;
  m.programmability = util::box_stats(recovered_h);
  m.recovered_flow_fraction =
      m.recoverable_flow_count == 0
          ? 1.0
          : static_cast<double>(m.recovered_flow_count) /
                static_cast<double>(m.recoverable_flow_count);

  for (sdwan::ControllerId j : state.active_controllers()) {
    m.available_control_resource += state.rest_capacity(j);
  }
  for (std::size_t j = 0; j < load.size(); ++j) {
    if (!loaded[j]) continue;
    m.controller_load.emplace_hint(m.controller_load.end(),
                                   static_cast<sdwan::ControllerId>(j),
                                   load[j]);
    m.used_control_resource += load[j];
  }
  m.per_flow_overhead_ms = m.recovered_flow_count == 0
                               ? 0.0
                               : m.total_overhead_ms /
                                     static_cast<double>(
                                         m.recovered_flow_count);
  return m;
}

}  // namespace pm::core
