#include "sdwan/failure.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pm::sdwan {

std::string FailureScenario::label(const Network& net) const {
  std::string out = "(";
  for (std::size_t k = 0; k < failed.size(); ++k) {
    if (k > 0) out += ", ";
    out += std::to_string(net.controller(failed[k]).location);
  }
  out += ")";
  return out;
}

std::vector<FailureScenario> enumerate_failures(const Network& net, int k) {
  const int m = net.controller_count();
  if (k < 0 || k > m) {
    throw std::invalid_argument("cannot fail " + std::to_string(k) + " of " +
                                std::to_string(m) + " controllers");
  }
  std::vector<FailureScenario> out;
  std::vector<ControllerId> combo(static_cast<std::size_t>(k));
  // Iterative combination enumeration in lexicographic order.
  for (int i = 0; i < k; ++i) combo[static_cast<std::size_t>(i)] = i;
  if (k == 0) {
    out.push_back({});
    return out;
  }
  while (true) {
    out.push_back({combo});
    int pos = k - 1;
    while (pos >= 0 &&
           combo[static_cast<std::size_t>(pos)] == m - k + pos) {
      --pos;
    }
    if (pos < 0) break;
    ++combo[static_cast<std::size_t>(pos)];
    for (int i = pos + 1; i < k; ++i) {
      combo[static_cast<std::size_t>(i)] =
          combo[static_cast<std::size_t>(i - 1)] + 1;
    }
  }
  return out;
}

FailureState::FailureState(const Network& net, FailureScenario scenario)
    : net_(&net), scenario_(std::move(scenario)) {
  const int m = net.controller_count();
  active_mask_.assign(static_cast<std::size_t>(m), 1);
  for (ControllerId j : scenario_.failed) {
    if (j < 0 || j >= m) throw std::invalid_argument("bad controller id");
    if (!active_mask_[static_cast<std::size_t>(j)]) {
      throw std::invalid_argument("duplicate failed controller");
    }
    active_mask_[static_cast<std::size_t>(j)] = 0;
  }
  std::sort(scenario_.failed.begin(), scenario_.failed.end());

  offline_switch_mask_.assign(static_cast<std::size_t>(net.switch_count()),
                              0);
  for (ControllerId j = 0; j < m; ++j) {
    if (active_mask_[static_cast<std::size_t>(j)]) {
      active_.push_back(j);
    } else {
      for (SwitchId s : net.controller(j).domain) {
        offline_switch_mask_[static_cast<std::size_t>(s)] = 1;
        offline_.push_back(s);
      }
    }
  }
  std::sort(offline_.begin(), offline_.end());
  if (active_.empty() && !scenario_.failed.empty()) {
    throw std::invalid_argument(
        "all controllers failed: nothing can recover the network");
  }

  // Residual capacities.
  rest_capacity_.assign(static_cast<std::size_t>(m), 0.0);
  for (ControllerId j : active_) {
    rest_capacity_[static_cast<std::size_t>(j)] =
        std::max(0.0, net.controller(j).capacity - net.normal_load(j));
  }

  // Offline flows and their recovery opportunities, flow-major in one
  // flat array. Offline switches on each path are counted from the
  // switches' side, so flows that touch no offline switch are never
  // read; p is read by path position.
  const auto switch_count = static_cast<std::size_t>(net.switch_count());
  const auto flow_count = static_cast<std::size_t>(net.flow_count());
  std::vector<int> offline_on_path(flow_count, 0);
  std::size_t incidences = 0;
  for (const SwitchId s : offline_) {
    for (const FlowId l : net.flows_at(s)) {
      ++offline_on_path[static_cast<std::size_t>(l)];
    }
    incidences += net.flows_at(s).size();
  }
  opportunities_.reserve(incidences);
  flow_offset_.assign(flow_count + 1, 0);
  switch_offset_.assign(switch_count + 1, 0);
  for (FlowId l = 0; l < net.flow_count(); ++l) {
    const std::size_t first = opportunities_.size();
    flow_offset_[static_cast<std::size_t>(l)] =
        static_cast<std::uint32_t>(first);
    const int on_path = offline_on_path[static_cast<std::size_t>(l)];
    if (on_path == 0) continue;
    offline_flows_.push_back(l);
    max_offline_on_path_ = std::max(max_offline_on_path_, on_path);
    const auto& path = net.flow(l).path;
    const auto p_at = net.path_diversity(l);
    for (std::size_t k = 0; k < path.size(); ++k) {
      const auto s = static_cast<std::size_t>(path[k]);
      if (offline_switch_mask_[s] && p_at[k] >= 2) {
        opportunities_.push_back({path[k], p_at[k]});
        ++switch_offset_[s + 1];
      }
    }
    if (opportunities_.size() > first) recoverable_flows_.push_back(l);
  }
  opportunities_.shrink_to_fit();
  flow_offset_.back() = static_cast<std::uint32_t>(opportunities_.size());

  // The switch-major transpose, by counting sort: recoverable flows are
  // visited in ascending id, so each switch's run ascends by flow.
  for (std::size_t s = 0; s < switch_count; ++s) {
    switch_offset_[s + 1] += switch_offset_[s];
  }
  at_switch_.resize(opportunities_.size());
  std::vector<std::uint32_t> cursor(switch_offset_.begin(),
                                    switch_offset_.end() - 1);
  for (FlowId l : recoverable_flows_) {
    for (std::uint32_t k = flow_offset_[static_cast<std::size_t>(l)];
         k < flow_offset_[static_cast<std::size_t>(l) + 1]; ++k) {
      const Opportunity& opp = opportunities_[k];
      at_switch_[cursor[static_cast<std::size_t>(opp.sw)]++] = {l, k, opp.p};
    }
  }

  // Precomputed C(i) orderings. The planners walk controllers-by-delay in
  // their inner loops for every candidate switch, so sort once per switch
  // here instead of once per query there. stable_sort on the ascending
  // active_ list breaks delay ties by controller id, matching the
  // first-minimum scan of nearest_active_controller.
  by_delay_.assign(static_cast<std::size_t>(net.switch_count()), active_);
  for (SwitchId i = 0; i < net.switch_count(); ++i) {
    auto& order = by_delay_[static_cast<std::size_t>(i)];
    std::stable_sort(order.begin(), order.end(),
                     [&](ControllerId a, ControllerId b) {
                       return net.delay_ms(i, a) < net.delay_ms(i, b);
                     });
  }

  // G of Eq. (6).
  for (SwitchId i : offline_) {
    const ControllerId j = nearest_active_controller(i);
    ideal_total_delay_ +=
        static_cast<double>(gamma(i)) * net.delay_ms(i, j);
  }
}

bool FailureState::is_offline_switch(SwitchId i) const {
  net_->topology().graph().check_node(i);
  return offline_switch_mask_[static_cast<std::size_t>(i)] != 0;
}

bool FailureState::is_active_controller(ControllerId j) const {
  if (j < 0 || j >= net_->controller_count()) return false;
  return active_mask_[static_cast<std::size_t>(j)] != 0;
}

double FailureState::rest_capacity(ControllerId j) const {
  if (!is_active_controller(j)) {
    throw std::invalid_argument("controller " + std::to_string(j) +
                                " is not active");
  }
  return rest_capacity_[static_cast<std::size_t>(j)];
}

std::span<const FailureState::Opportunity> FailureState::opportunities(
    FlowId l) const {
  const std::size_t first = opportunity_offset(l);
  return std::span<const Opportunity>(opportunities_)
      .subspan(first, flow_offset_[static_cast<std::size_t>(l) + 1] - first);
}

std::size_t FailureState::opportunity_offset(FlowId l) const {
  if (l < 0 || l >= net_->flow_count()) throw std::out_of_range("flow id");
  return flow_offset_[static_cast<std::size_t>(l)];
}

std::span<const FailureState::SwitchOpportunity>
FailureState::opportunities_at(SwitchId i) const {
  net_->topology().graph().check_node(i);
  const std::uint32_t first = switch_offset_[static_cast<std::size_t>(i)];
  return std::span<const SwitchOpportunity>(at_switch_)
      .subspan(first, switch_offset_[static_cast<std::size_t>(i) + 1] - first);
}

const std::vector<ControllerId>& FailureState::controllers_by_delay(
    SwitchId i) const {
  net_->topology().graph().check_node(i);
  return by_delay_[static_cast<std::size_t>(i)];
}

ControllerId FailureState::nearest_active_controller(SwitchId i) const {
  if (active_.empty()) throw std::logic_error("no active controllers");
  return controllers_by_delay(i).front();
}

}  // namespace pm::sdwan
