#include "graph/path_count.hpp"

#include <algorithm>
#include <vector>

namespace pm::graph {

namespace {

/// Bounded simple-path counting by explicit-stack DFS.
///
/// The traversal is iterative (a recursive version overflows the call
/// stack on large synthetic Waxman graphs once callers ask for
/// generous hop budgets) and keeps all state in the local struct, so
/// concurrent counts from pool workers never share anything.
struct Counter {
  const Graph& g;
  NodeId dst;
  std::int64_t cap;
  const std::vector<int>& dist_to_dst;  // BFS hops to dst, for pruning
  std::vector<char> on_path;
  std::int64_t total = 0;

  /// One in-progress node of the simple path being extended.
  struct Frame {
    NodeId node;
    int budget;
    std::size_t next_arc;
  };

  void run(NodeId src, int budget) {
    std::vector<Frame> stack;
    // Entering a node replays the recursive prologue: count a completed
    // path at dst, prune when the BFS lower bound exceeds the budget,
    // otherwise push the node onto the path.
    auto try_enter = [&](NodeId u, int b) {
      if (u == dst) {
        ++total;
        return;
      }
      const int lower_bound = dist_to_dst[static_cast<std::size_t>(u)];
      if (lower_bound < 0 || lower_bound > b) return;  // cannot reach
      on_path[static_cast<std::size_t>(u)] = 1;
      stack.push_back({u, b, 0});
    };
    try_enter(src, budget);
    while (!stack.empty()) {
      if (total >= cap) break;  // counting is clamped at cap anyway
      Frame& f = stack.back();
      const auto& arcs = g.neighbors(f.node);
      const std::size_t before = stack.size();
      while (f.next_arc < arcs.size()) {
        const Arc& a = arcs[f.next_arc++];
        if (!on_path[static_cast<std::size_t>(a.to)]) {
          try_enter(a.to, f.budget - 1);
          if (stack.size() > before) break;  // descended; f may be stale
        }
        if (total >= cap) break;
      }
      if (stack.size() == before && stack.back().next_arc >= arcs.size()) {
        on_path[static_cast<std::size_t>(stack.back().node)] = 0;
        stack.pop_back();
      }
    }
  }
};

}  // namespace

std::int64_t count_paths_bounded(const Graph& g, NodeId src, NodeId dst,
                                 int max_hops, std::int64_t cap,
                                 const std::vector<int>& dist_to_dst) {
  g.check_node(src);
  g.check_node(dst);
  if (src == dst) return 1;  // the empty path
  if (max_hops <= 0) return 0;
  Counter c{g, dst, cap, dist_to_dst,
            std::vector<char>(static_cast<std::size_t>(g.node_count()), 0),
            0};
  c.run(src, max_hops);
  return std::min(c.total, cap);
}

std::int64_t count_paths_bounded(const Graph& g, NodeId src, NodeId dst,
                                 int max_hops, std::int64_t cap) {
  g.check_node(dst);
  return count_paths_bounded(g, src, dst, max_hops, cap,
                             hop_distances(g, dst));
}

std::int64_t count_shortest_paths(const Graph& g, NodeId src, NodeId dst) {
  g.check_node(src);
  g.check_node(dst);
  if (src == dst) return 1;
  const auto dist = hop_distances(g, src);
  const int d_dst = dist[static_cast<std::size_t>(dst)];
  if (d_dst < 0) return 0;

  // Process nodes in increasing BFS distance; count paths over the DAG of
  // edges that go from distance d to d+1.
  std::vector<NodeId> order(static_cast<std::size_t>(g.node_count()));
  for (int i = 0; i < g.node_count(); ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return dist[static_cast<std::size_t>(a)] < dist[static_cast<std::size_t>(b)];
  });

  std::vector<std::int64_t> ways(static_cast<std::size_t>(g.node_count()), 0);
  ways[static_cast<std::size_t>(src)] = 1;
  for (NodeId u : order) {
    const int du = dist[static_cast<std::size_t>(u)];
    if (du < 0 || ways[static_cast<std::size_t>(u)] == 0) continue;
    for (const Arc& a : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(a.to)] == du + 1) {
        ways[static_cast<std::size_t>(a.to)] +=
            ways[static_cast<std::size_t>(u)];
      }
    }
  }
  return ways[static_cast<std::size_t>(dst)];
}

std::int64_t count_progress_next_hops(const Graph& g, NodeId src, NodeId dst,
                                      const std::vector<int>& dist_to_dst) {
  g.check_node(src);
  g.check_node(dst);
  if (src == dst) return 0;
  const int d_src = dist_to_dst[static_cast<std::size_t>(src)];
  if (d_src < 0) return 0;
  std::int64_t n = 0;
  for (const Arc& a : g.neighbors(src)) {
    const int d_nh = dist_to_dst[static_cast<std::size_t>(a.to)];
    if (d_nh >= 0 && d_nh <= d_src) ++n;
  }
  return n;
}

std::int64_t count_progress_next_hops(const Graph& g, NodeId src, NodeId dst) {
  g.check_node(dst);
  return count_progress_next_hops(g, src, dst, hop_distances(g, dst));
}

std::int64_t path_diversity(const Graph& g, NodeId src, NodeId dst,
                            const PathCountOptions& options,
                            const std::vector<int>& dist_to_dst) {
  switch (options.policy) {
    case PathCountPolicy::kShortestPathDag:
      // The DAG DP runs from src, so dst's distance vector does not
      // apply; this policy pays its own BFS.
      return count_shortest_paths(g, src, dst);
    case PathCountPolicy::kNextHopCount:
      return count_progress_next_hops(g, src, dst, dist_to_dst);
    case PathCountPolicy::kBoundedSimplePaths:
      break;
  }
  const int d = dist_to_dst[static_cast<std::size_t>(src)];
  if (src != dst && d < 0) return 0;
  return count_paths_bounded(g, src, dst, d + options.slack, options.cap,
                             dist_to_dst);
}

std::int64_t path_diversity(const Graph& g, NodeId src, NodeId dst,
                            const PathCountOptions& options) {
  if (options.policy == PathCountPolicy::kShortestPathDag) {
    return count_shortest_paths(g, src, dst);
  }
  g.check_node(src);
  g.check_node(dst);
  return path_diversity(g, src, dst, options, hop_distances(g, dst));
}

}  // namespace pm::graph
