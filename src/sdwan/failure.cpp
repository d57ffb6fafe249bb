#include "sdwan/failure.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/strings.hpp"

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

FailureScenario FailureScenario::parse(const Network& net,
                                       std::string_view nodes) {
  auto reject = [&](const std::string& why) {
    std::string valid;
    for (ControllerId j = 0; j < net.controller_count(); ++j) {
      if (j > 0) valid += ",";
      valid += std::to_string(net.controller(j).location);
    }
    throw std::invalid_argument("bad failure '" + std::string(nodes) +
                                "': " + why + " (controller nodes: " +
                                valid + ")");
  };
  FailureScenario scenario;
  for (const std::string& tok : util::split(nodes, ',')) {
    long long node = 0;
    if (!util::parse_int(tok, node)) reject("'" + tok + "' is not a node id");
    ControllerId hit = -1;
    for (ControllerId j = 0; j < net.controller_count(); ++j) {
      if (net.controller(j).location == node) hit = j;
    }
    if (hit < 0) reject("node " + tok + " hosts no controller");
    scenario.failed.push_back(hit);
  }
  auto& failed = scenario.failed;
  std::sort(failed.begin(), failed.end());
  failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
  return scenario;
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

  // Offline flows: every flow crossing an offline switch, counted from
  // the switches' side so flows that touch none are never read. A path
  // has fewer nodes than the network, whose n(n - 1) flow ids fit an
  // int, so a count fits 16 bits.
  const auto flow_count = static_cast<std::size_t>(net.flow_count());
  std::vector<std::uint16_t> on_path(flow_count, 0);
  std::size_t offline_flow_count = 0;
  for (const SwitchId s : offline_) {
    for (const FlowId l : net.flows_at(s)) {
      offline_flow_count += on_path[static_cast<std::size_t>(l)]++ == 0;
    }
  }

  // Recovery opportunities are the offline switches' groups in the
  // network's index, visited position by position so that each flow's
  // run fills in path order. Counting sort into the flow-major array: flow
  // l's count goes to flow_offset_[l + 2], so after the prefix sum
  // flow_offset_[l + 1] is the start of l's run and serves as its
  // placement cursor, ending as the start of l + 1.
  const auto gather = [&](auto&& visit) {
    for (std::size_t position = 0; position < net.position_count();
         ++position) {
      for (const SwitchId s : offline_) {
        for (const auto& opp : net.opportunities_at(s, position)) {
          visit(static_cast<std::size_t>(s), opp);
        }
      }
    }
  };
  const auto switch_count = static_cast<std::size_t>(net.switch_count());
  flow_offset_.assign(flow_count + 2, 0);
  switch_offset_.assign(switch_count + 1, 0);
  std::size_t recoverable_count = 0;
  gather([&](std::size_t s, const Network::SwitchOpportunity& opp) {
    recoverable_count +=
        flow_offset_[static_cast<std::size_t>(opp.flow) + 2]++ == 0;
    ++switch_offset_[s + 1];
  });
  // One pass over the flows, without branches: every id is written and
  // kept only when the flow qualifies, into a spare last slot otherwise.
  offline_flows_.resize(offline_flow_count + 1);
  recoverable_flows_.resize(recoverable_count + 1);
  std::size_t offline_at = 0;
  std::size_t recoverable_at = 0;
  std::uint32_t most = 0;
  std::uint32_t end = 0;
  for (std::size_t l = 0; l < flow_count; ++l) {
    const std::uint32_t on = on_path[l];
    const std::uint32_t count = flow_offset_[l + 2];
    offline_flows_[offline_at] = static_cast<FlowId>(l);
    offline_at += on != 0;
    recoverable_flows_[recoverable_at] = static_cast<FlowId>(l);
    recoverable_at += count != 0;
    most = std::max(most, on);
    end += count;
    flow_offset_[l + 2] = end;
  }
  offline_flows_.pop_back();
  recoverable_flows_.pop_back();
  max_offline_on_path_ = static_cast<int>(most);
  for (std::size_t s = 0; s < switch_count; ++s) {
    switch_offset_[s + 1] += switch_offset_[s];
  }

  // Every flow through an offline switch is offline, so the switch's
  // whole index run is its opportunities_at run, and an entry's rank
  // there is its slot in at_switch_.
  opportunities_.resize(end);
  at_switch_.resize(end);
  gather([&](std::size_t s, const Network::SwitchOpportunity& opp) {
    const std::uint32_t k =
        flow_offset_[static_cast<std::size_t>(opp.flow) + 1]++;
    opportunities_[k] = {static_cast<SwitchId>(s), opp.p};
    at_switch_[switch_offset_[s] + opp.rank] = {opp.flow, k, opp.p};
  });
  flow_offset_.pop_back();

  // C(i): the network's full order from switch i without the failed
  // controllers, one row of active_.size() entries per switch.
  by_delay_.reserve(switch_count * active_.size());
  for (SwitchId i = 0; i < net.switch_count(); ++i) {
    for (const ControllerId j : net.controllers_by_delay(i)) {
      if (active_mask_[static_cast<std::size_t>(j)]) by_delay_.push_back(j);
    }
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

std::span<const ControllerId> FailureState::controllers_by_delay(
    SwitchId i) const {
  net_->topology().graph().check_node(i);
  return std::span<const ControllerId>(by_delay_).subspan(
      static_cast<std::size_t>(i) * active_.size(), active_.size());
}

ControllerId FailureState::nearest_active_controller(SwitchId i) const {
  if (active_.empty()) throw std::logic_error("no active controllers");
  return controllers_by_delay(i).front();
}

}  // namespace pm::sdwan
