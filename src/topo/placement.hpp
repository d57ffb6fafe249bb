// Controller placement for topologies without a published layout —
// needed by the custom-topology workflows and by the related-work RCP
// experiments (Sec. VII-A cites reliable-controller-placement studies).
//
// k_center_domains is deterministic greedy farthest-point placement over
// graph propagation delays: it minimizes (2-approx) the worst
// switch-to-controller delay, the classic latency-driven placement.
#pragma once

#include <map>
#include <vector>

#include "topo/topology.hpp"

namespace pm::topo {

using Domains = std::map<graph::NodeId, std::vector<graph::NodeId>>;

/// Greedy k-center placement; returns controller node -> domain members.
/// Throws std::invalid_argument unless 1 <= k <= node_count.
Domains k_center_domains(const Topology& topo, int k);

/// The worst switch-to-controller shortest-path delay of a placement.
double worst_case_delay_ms(const Topology& topo, const Domains& domains);

}  // namespace pm::topo
