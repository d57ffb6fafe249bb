#include "topo/generators.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "topo/geo.hpp"

namespace pm::topo {

namespace {

/// Places `n` nodes uniformly in a side_km x side_km square, expressed as
/// small lat/lon offsets around a reference point so that haversine-based
/// delays approximate planar distance.
std::vector<Node> place_nodes(int n, double side_km, std::mt19937_64& rng) {
  // 1 degree latitude ~ 111.19 km at the reference latitude.
  constexpr double kRefLat = 39.0;
  constexpr double kKmPerDegLat = 111.19;
  const double km_per_deg_lon =
      kKmPerDegLat * std::cos(kRefLat * 3.14159265358979323846 / 180.0);
  std::uniform_real_distribution<double> u(0.0, side_km);
  std::vector<Node> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double x_km = u(rng);
    const double y_km = u(rng);
    nodes.push_back({"n" + std::to_string(i), kRefLat + y_km / kKmPerDegLat,
                     -100.0 + x_km / km_per_deg_lon});
  }
  return nodes;
}

double node_distance_km(const Node& a, const Node& b) {
  return haversine_km(a.latitude, a.longitude, b.latitude, b.longitude);
}

/// Connects the topology with a random spanning tree: node i links to a
/// uniformly chosen earlier node.
void add_spanning_tree(Topology& topo, std::mt19937_64& rng) {
  for (int i = 1; i < topo.node_count(); ++i) {
    std::uniform_int_distribution<int> pick(0, i - 1);
    topo.add_link(i, pick(rng));
  }
}

}  // namespace

Topology waxman(int nodes, double alpha, double beta, std::uint64_t seed,
                double side_km) {
  std::mt19937_64 rng(seed);
  Topology topo("waxman(n=" + std::to_string(nodes) + ")");
  for (auto& n : place_nodes(nodes, side_km, rng)) topo.add_node(std::move(n));
  add_spanning_tree(topo, rng);

  double max_dist = 0.0;
  for (int u = 0; u < nodes; ++u) {
    for (int v = u + 1; v < nodes; ++v) {
      max_dist = std::max(max_dist, node_distance_km(topo.node(u), topo.node(v)));
    }
  }
  if (max_dist <= 0.0) return topo;

  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int u = 0; u < nodes; ++u) {
    for (int v = u + 1; v < nodes; ++v) {
      if (topo.graph().has_edge(u, v)) continue;
      const double d = node_distance_km(topo.node(u), topo.node(v));
      const double p = alpha * std::exp(-d / (beta * max_dist));
      if (coin(rng) < p) topo.add_link(u, v);
    }
  }
  return topo;
}

Topology ring_with_chords(int nodes, int chords, std::uint64_t seed) {
  if (nodes < 3) throw std::invalid_argument("ring needs at least 3 nodes");
  std::mt19937_64 rng(seed);
  Topology topo("ring(n=" + std::to_string(nodes) + ")");
  // Nodes on a circle of radius 1000 km around a reference point.
  constexpr double kRefLat = 39.0;
  constexpr double kKmPerDeg = 111.19;
  for (int i = 0; i < nodes; ++i) {
    const double angle =
        2.0 * 3.14159265358979323846 * static_cast<double>(i) / nodes;
    topo.add_node({"r" + std::to_string(i),
                   kRefLat + 9.0 * std::sin(angle),
                   -100.0 + 9.0 * std::cos(angle) /
                                std::cos(kRefLat * 3.14159265358979323846 /
                                         180.0)});
    (void)kKmPerDeg;
  }
  for (int i = 0; i < nodes; ++i) topo.add_link(i, (i + 1) % nodes);
  std::uniform_int_distribution<int> pick(0, nodes - 1);
  int added = 0;
  int attempts = 0;
  while (added < chords && attempts < 100 * std::max(chords, 1)) {
    ++attempts;
    const int u = pick(rng);
    const int v = pick(rng);
    if (u == v || topo.graph().has_edge(u, v)) continue;
    topo.add_link(u, v);
    ++added;
  }
  return topo;
}

}  // namespace pm::topo
