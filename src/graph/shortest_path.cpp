#include "graph/shortest_path.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace pm::graph {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

DijkstraResult dijkstra(const Graph& g, NodeId src) {
  g.check_node(src);
  const auto n = static_cast<std::size_t>(g.node_count());
  DijkstraResult r;
  r.dist.assign(n, kInf);
  r.parent.assign(n, -1);
  r.dist[static_cast<std::size_t>(src)] = 0.0;

  using Entry = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  pq.push({0.0, src});

  std::vector<char> settled(n, 0);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    auto& done = settled[static_cast<std::size_t>(u)];
    if (done) continue;
    done = 1;
    for (const Arc& a : g.neighbors(u)) {
      const auto vi = static_cast<std::size_t>(a.to);
      const double nd = d + a.weight;
      if (nd < r.dist[vi] ||
          (nd == r.dist[vi] && r.parent[vi] > u)) {
        // Strictly shorter, or an equal-length path through a smaller
        // predecessor id: keeps the chosen path deterministic.
        r.dist[vi] = nd;
        r.parent[vi] = u;
        pq.push({nd, a.to});
      }
    }
  }
  return r;
}

std::vector<NodeId> extract_path(const DijkstraResult& r, NodeId dst) {
  const auto di = static_cast<std::size_t>(dst);
  if (di >= r.dist.size() || r.dist[di] == kInf) return {};
  std::vector<NodeId> path;
  for (NodeId v = dst; v != -1; v = r.parent[static_cast<std::size_t>(v)]) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<NodeId> shortest_path(const Graph& g, NodeId src, NodeId dst) {
  g.check_node(dst);
  if (src == dst) return {src};
  return extract_path(dijkstra(g, src), dst);
}

double path_length(const Graph& g, const std::vector<NodeId>& path) {
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += g.edge_weight(path[i - 1], path[i]);
  }
  return total;
}

}  // namespace pm::graph
