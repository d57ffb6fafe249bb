#include "sdwan/network.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/diversity_cache.hpp"
#include "graph/shortest_path.hpp"

namespace pm::sdwan {

Network::Network(topo::Topology topology,
                 std::map<SwitchId, std::vector<SwitchId>> domains,
                 NetworkConfig config)
    : topology_(std::move(topology)), config_(config) {
  const int n = topology_.node_count();
  if (n == 0) throw std::invalid_argument("empty topology");
  if (!graph::is_connected(topology_.graph())) {
    throw std::invalid_argument("topology must be connected");
  }
  if (domains.empty()) throw std::invalid_argument("no controller domains");

  // Controllers and the switch -> controller map.
  controller_of_switch_.assign(static_cast<std::size_t>(n), -1);
  for (const auto& [location, members] : domains) {
    topology_.graph().check_node(location);
    Controller c;
    c.name = "C" + std::to_string(location);
    c.location = location;
    c.capacity = config_.controller_capacity;
    c.domain = members;
    std::sort(c.domain.begin(), c.domain.end());
    const auto j = static_cast<ControllerId>(controllers_.size());
    bool controls_own_node = false;
    for (SwitchId s : c.domain) {
      topology_.graph().check_node(s);
      auto& owner = controller_of_switch_[static_cast<std::size_t>(s)];
      if (owner != -1) {
        throw std::invalid_argument("switch " + std::to_string(s) +
                                    " assigned to two domains");
      }
      owner = j;
      if (s == location) controls_own_node = true;
    }
    if (!controls_own_node) {
      throw std::invalid_argument("controller node " +
                                  std::to_string(location) +
                                  " must be inside its own domain");
    }
    controllers_.push_back(std::move(c));
  }
  for (int s = 0; s < n; ++s) {
    if (controller_of_switch_[static_cast<std::size_t>(s)] == -1) {
      throw std::invalid_argument("switch " + std::to_string(s) +
                                  " belongs to no domain");
    }
  }

  // All-pairs deterministic shortest-path flows (Sec. VI-A: a flow between
  // any two nodes), plus the switch -> controller delay matrix.
  flows_at_switch_.assign(static_cast<std::size_t>(n), {});
  delay_.assign(static_cast<std::size_t>(n),
                std::vector<double>(controllers_.size(), 0.0));
  std::vector<graph::DijkstraResult> sssp;
  sssp.reserve(static_cast<std::size_t>(n));
  for (int src = 0; src < n; ++src) {
    sssp.push_back(graph::dijkstra(topology_.graph(), src));
  }
  by_delay_.resize(static_cast<std::size_t>(n) * controllers_.size());
  for (int i = 0; i < n; ++i) {
    auto& row = delay_[static_cast<std::size_t>(i)];
    for (ControllerId j = 0; j < controller_count(); ++j) {
      row[static_cast<std::size_t>(j)] =
          sssp[static_cast<std::size_t>(i)]
              .dist[static_cast<std::size_t>(controllers_[static_cast<std::size_t>(j)].location)];
    }
    // stable_sort over ascending ids breaks delay ties by id.
    const auto order = by_delay_.begin() + i * controller_count();
    std::iota(order, order + controller_count(), 0);
    std::stable_sort(order, order + controller_count(),
                     [&](ControllerId a, ControllerId b) {
                       return row[static_cast<std::size_t>(a)] <
                              row[static_cast<std::size_t>(b)];
                     });
  }

  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      Flow f;
      f.id = static_cast<FlowId>(flows_.size());
      f.src = src;
      f.dst = dst;
      f.path = graph::extract_path(sssp[static_cast<std::size_t>(src)], dst);
      for (SwitchId s : f.path) {
        flows_at_switch_[static_cast<std::size_t>(s)].push_back(f.id);
      }
      flows_.push_back(std::move(f));
    }
  }

  // Programmability quantities. Path diversity from a node to a
  // destination does not depend on the flow, so memoize per (node, dst);
  // the cache also shares one BFS distance vector across every query
  // against the same destination. Diversity at the destination itself is 0
  // (no forwarding choice remains).
  graph::DiversityCache diversity_cache(config_.path_count);
  auto diversity_of = [&](SwitchId i, SwitchId dst) -> std::int64_t {
    if (i == dst) return 0;
    return diversity_cache.diversity(topology_.graph(), i, dst);
  };

  // The per-switch opportunity index, by counting sort on (switch,
  // position) groups: count while filling diversity_, then place flows in
  // ascending id, so each group ascends by flow and each switch's flows
  // take their ranks in the same pass.
  for (const Flow& f : flows_) {
    position_count_ = std::max(position_count_, f.path.size());
  }
  diversity_.resize(flows_.size());
  group_offset_.assign(static_cast<std::size_t>(n) * position_count_ + 1, 0);
  const auto group = [&](SwitchId s, std::size_t position) {
    return static_cast<std::size_t>(s) * position_count_ + position;
  };
  for (const Flow& f : flows_) {
    auto& div = diversity_[static_cast<std::size_t>(f.id)];
    div.reserve(f.path.size());
    for (std::size_t k = 0; k < f.path.size(); ++k) {
      div.push_back(diversity_of(f.path[k], f.dst));
      if (div.back() >= 2) ++group_offset_[group(f.path[k], k) + 1];
    }
  }
  for (std::size_t b = 1; b < group_offset_.size(); ++b) {
    group_offset_[b] += group_offset_[b - 1];
  }
  opportunities_.resize(group_offset_.back());
  std::vector<std::uint32_t> cursor(group_offset_.begin(),
                                    group_offset_.end() - 1);
  std::vector<std::uint32_t> rank(static_cast<std::size_t>(n), 0);
  for (const Flow& f : flows_) {
    const auto& div = diversity_[static_cast<std::size_t>(f.id)];
    for (std::size_t k = 0; k < f.path.size(); ++k) {
      if (div[k] < 2) continue;
      const auto s = static_cast<std::size_t>(f.path[k]);
      opportunities_[cursor[group(f.path[k], k)]++] = {f.id, rank[s]++,
                                                        div[k]};
    }
  }
}

const Controller& Network::controller(ControllerId j) const {
  if (j < 0 || j >= controller_count()) {
    throw std::out_of_range("controller id out of range");
  }
  return controllers_[static_cast<std::size_t>(j)];
}

ControllerId Network::controller_of(SwitchId i) const {
  topology_.graph().check_node(i);
  return controller_of_switch_[static_cast<std::size_t>(i)];
}

const Flow& Network::flow(FlowId l) const {
  if (l < 0 || l >= flow_count()) throw std::out_of_range("flow id");
  return flows_[static_cast<std::size_t>(l)];
}

const std::vector<FlowId>& Network::flows_at(SwitchId i) const {
  topology_.graph().check_node(i);
  return flows_at_switch_[static_cast<std::size_t>(i)];
}

double Network::normal_load(ControllerId j) const {
  const Controller& c = controller(j);
  double load = 0.0;
  for (SwitchId s : c.domain) load += flow_count_at(s);
  return load;
}

double Network::delay_ms(SwitchId i, ControllerId j) const {
  topology_.graph().check_node(i);
  if (j < 0 || j >= controller_count()) {
    throw std::out_of_range("controller id out of range");
  }
  return delay_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
}

std::int64_t Network::diversity(FlowId l, SwitchId i) const {
  const Flow& f = flow(l);
  topology_.graph().check_node(i);
  for (std::size_t k = 0; k < f.path.size(); ++k) {
    if (f.path[k] == i) {
      return diversity_[static_cast<std::size_t>(l)][k];
    }
  }
  return 0;
}

std::span<const Network::SwitchOpportunity> Network::opportunities_at(
    SwitchId i, std::size_t position) const {
  topology_.graph().check_node(i);
  if (position >= position_count_) {
    throw std::out_of_range("path position out of range");
  }
  const std::size_t b = static_cast<std::size_t>(i) * position_count_ + position;
  return std::span<const SwitchOpportunity>(opportunities_)
      .subspan(group_offset_[b], group_offset_[b + 1] - group_offset_[b]);
}

std::span<const ControllerId> Network::controllers_by_delay(
    SwitchId i) const {
  topology_.graph().check_node(i);
  return std::span<const ControllerId>(by_delay_).subspan(
      static_cast<std::size_t>(i) * controllers_.size(), controllers_.size());
}

}  // namespace pm::sdwan
