#include "topo/placement.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/shortest_path.hpp"

namespace pm::topo {

namespace {

std::vector<graph::DijkstraResult> all_sssp(const Topology& topo) {
  std::vector<graph::DijkstraResult> sssp;
  sssp.reserve(static_cast<std::size_t>(topo.node_count()));
  for (int s = 0; s < topo.node_count(); ++s) {
    sssp.push_back(graph::dijkstra(topo.graph(), s));
  }
  return sssp;
}

std::vector<graph::NodeId> k_center_seeds(
    const std::vector<graph::DijkstraResult>& sssp, int n, int k) {
  std::vector<graph::NodeId> centers{0};
  while (static_cast<int>(centers.size()) < k) {
    graph::NodeId farthest = -1;
    double best = -1.0;
    for (int v = 0; v < n; ++v) {
      double dist = std::numeric_limits<double>::infinity();
      for (graph::NodeId c : centers) {
        dist = std::min(dist, sssp[static_cast<std::size_t>(c)]
                                  .dist[static_cast<std::size_t>(v)]);
      }
      if (dist > best) {
        best = dist;
        farthest = v;
      }
    }
    centers.push_back(farthest);
  }
  std::sort(centers.begin(), centers.end());
  return centers;
}

}  // namespace

Domains k_center_domains(const Topology& topo, int k) {
  const int n = topo.node_count();
  if (k < 1 || k > n) {
    throw std::invalid_argument("k must be in [1, node_count]");
  }
  const auto sssp = all_sssp(topo);
  const auto centers = k_center_seeds(sssp, n, k);

  Domains domains;
  for (graph::NodeId c : centers) domains[c] = {};
  for (int v = 0; v < n; ++v) {
    graph::NodeId nearest = centers.front();
    double best = std::numeric_limits<double>::infinity();
    for (graph::NodeId c : centers) {
      const double d = sssp[static_cast<std::size_t>(c)]
                           .dist[static_cast<std::size_t>(v)];
      if (d < best) {
        best = d;
        nearest = c;
      }
    }
    domains[nearest].push_back(v);
  }
  return domains;
}

double worst_case_delay_ms(const Topology& topo, const Domains& domains) {
  double worst = 0.0;
  for (const auto& [controller, members] : domains) {
    const auto sssp = graph::dijkstra(topo.graph(), controller);
    for (graph::NodeId v : members) {
      worst = std::max(worst, sssp.dist[static_cast<std::size_t>(v)]);
    }
  }
  return worst;
}

}  // namespace pm::topo
