// Traffic model: per-flow rates and link utilization.
//
// Path programmability exists to serve traffic engineering — the paper's
// motivation (Sec. I) is that programmable flows can be rerouted under
// traffic variation, as in SWAN [1] and B4 [2]. This module provides the
// substrate the rerouting engine (core/reroute.hpp) optimizes over:
// synthetic traffic matrices, surge injection, and link-load accounting.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sdwan/network.hpp"

namespace pm::sdwan {

/// Per-flow offered rate in Mbps, indexed by FlowId.
struct TrafficMatrix {
  std::vector<double> rate;

  double total() const;
  double of(FlowId l) const { return rate.at(static_cast<std::size_t>(l)); }
};

/// Every flow offers the same rate.
TrafficMatrix uniform_traffic(const Network& net, double per_flow_mbps);

/// Gravity model: flow (s, d) rate proportional to weight(s) * weight(d),
/// where a node's weight is its degree (a standard proxy for PoP size),
/// scaled so the matrix totals `total_mbps`. Deterministic.
TrafficMatrix gravity_traffic(const Network& net, double total_mbps);

/// Multiplies the rate of every flow with the given source node by
/// `factor` (a regional traffic surge).
void apply_source_surge(TrafficMatrix& tm, const Network& net,
                        SwitchId source, double factor);

/// An undirected link identified by its ordered endpoints (u < v).
using LinkId = std::pair<SwitchId, SwitchId>;

LinkId make_link(SwitchId a, SwitchId b);

/// Link loads for a routing: every flow follows `paths[l]` when present,
/// its default shortest path otherwise.
struct LinkLoads {
  std::map<LinkId, double> load_mbps;
  /// max over links of load / capacity.
  double max_utilization = 0.0;
  LinkId busiest_link{-1, -1};
  /// Number of links with load above capacity.
  int congested_links = 0;
};

LinkLoads compute_link_loads(
    const Network& net, const TrafficMatrix& tm, double link_capacity_mbps,
    const std::map<FlowId, std::vector<SwitchId>>& path_overrides = {});

}  // namespace pm::sdwan
