#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "graph/graph.hpp"
#include "graph/path_count.hpp"
#include "graph/shortest_path.hpp"

namespace pm::graph {
namespace {

Graph diamond() {
  // 0 - 1 - 3, 0 - 2 - 3 with a direct 0-3 chord.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 3, 3.0);
  return g;
}

/// Deterministic random connected graph for property tests.
Graph random_graph(int n, double extra_edge_prob, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Graph g(n);
  std::uniform_real_distribution<double> w(1.0, 10.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int v = 1; v < n; ++v) {
    std::uniform_int_distribution<int> pick(0, v - 1);
    g.add_edge(v, pick(rng), w(rng));
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (!g.has_edge(u, v) && coin(rng) < extra_edge_prob) {
        g.add_edge(u, v, w(rng));
      }
    }
  }
  return g;
}

/// Brute-force shortest distance by DFS over all simple paths.
double brute_force_distance(const Graph& g, NodeId src, NodeId dst) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<char> used(static_cast<std::size_t>(g.node_count()), 0);
  auto dfs = [&](auto&& self, NodeId u, double len) -> void {
    if (len >= best) return;
    if (u == dst) {
      best = len;
      return;
    }
    used[static_cast<std::size_t>(u)] = 1;
    for (const Arc& a : g.neighbors(u)) {
      if (!used[static_cast<std::size_t>(a.to)]) {
        self(self, a.to, len + a.weight);
      }
    }
    used[static_cast<std::size_t>(u)] = 0;
  };
  dfs(dfs, src, 0.0);
  return best;
}

/// Brute-force count of simple paths with <= max_hops edges.
std::int64_t brute_force_paths(const Graph& g, NodeId src, NodeId dst,
                               int max_hops) {
  std::int64_t count = 0;
  std::vector<char> used(static_cast<std::size_t>(g.node_count()), 0);
  auto dfs = [&](auto&& self, NodeId u, int hops) -> void {
    if (u == dst) {
      ++count;
      return;
    }
    if (hops >= max_hops) return;
    used[static_cast<std::size_t>(u)] = 1;
    for (const Arc& a : g.neighbors(u)) {
      if (!used[static_cast<std::size_t>(a.to)]) {
        self(self, a.to, hops + 1);
      }
    }
    used[static_cast<std::size_t>(u)] = 0;
  };
  dfs(dfs, src, 0);
  return count;
}

// ---------------------------------------------------------------------
// Graph container
// ---------------------------------------------------------------------

TEST(Graph, BasicInvariants) {
  Graph g(3);
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.edge_count(), 0u);
  g.add_edge(0, 1, 2.5);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0), 2.5);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.edges().size(), 1u);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 1, 2.0), std::invalid_argument);  // duplicate
  EXPECT_THROW(g.add_edge(1, 0, 2.0), std::invalid_argument);  // reversed dup
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);       // self-loop
  EXPECT_THROW(g.add_edge(0, 5), std::invalid_argument);       // range
  EXPECT_THROW(g.add_edge(0, 2, -1.0), std::invalid_argument); // negative
  EXPECT_THROW(g.edge_weight(0, 2), std::out_of_range);
  EXPECT_THROW(Graph(-1), std::invalid_argument);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_connected(g));
  g.add_edge(1, 2);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_connected(Graph(0)));
  EXPECT_TRUE(is_connected(Graph(1)));
}

TEST(Graph, HopDistances) {
  Graph g = diamond();
  const auto d = hop_distances(g, 0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], 1);
  EXPECT_EQ(d[3], 1);  // direct chord
  Graph h(3);
  h.add_edge(0, 1);
  EXPECT_EQ(hop_distances(h, 0)[2], -1);  // unreachable
}

// ---------------------------------------------------------------------
// Shortest paths
// ---------------------------------------------------------------------

TEST(ShortestPath, DiamondPath) {
  Graph g = diamond();
  const auto p = shortest_path(g, 0, 3);
  // Two length-2 paths; the deterministic tie-break picks via node 1.
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.front(), 0);
  EXPECT_EQ(p.back(), 3);
  EXPECT_EQ(p[1], 1);
  EXPECT_DOUBLE_EQ(path_length(g, p), 2.0);
}

TEST(ShortestPath, TrivialAndUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(shortest_path(g, 0, 0), std::vector<NodeId>{0});
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
  EXPECT_EQ(path_length(g, {0}), 0.0);
  EXPECT_EQ(path_length(g, {}), 0.0);
}

TEST(ShortestPath, PathLengthValidatesEdges) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(path_length(g, {0, 2}), std::out_of_range);
}

class DijkstraRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraRandom, MatchesBruteForceOnAllPairs) {
  const Graph g = random_graph(9, 0.3, GetParam());
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto r = dijkstra(g, s);
    for (NodeId t = 0; t < g.node_count(); ++t) {
      const double expected = brute_force_distance(g, s, t);
      EXPECT_NEAR(r.dist[static_cast<std::size_t>(t)], expected, 1e-9)
          << "s=" << s << " t=" << t << " seed=" << GetParam();
      // The reconstructed path must realize the distance.
      const auto p = extract_path(r, t);
      ASSERT_FALSE(p.empty());
      EXPECT_NEAR(path_length(g, p), expected, 1e-9);
      EXPECT_EQ(p.front(), s);
      EXPECT_EQ(p.back(), t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ShortestPath, DeterministicAcrossRuns) {
  const Graph g = random_graph(12, 0.4, 99);
  for (NodeId t = 1; t < g.node_count(); ++t) {
    EXPECT_EQ(shortest_path(g, 0, t), shortest_path(g, 0, t));
  }
}

// ---------------------------------------------------------------------
// Path counting
// ---------------------------------------------------------------------

TEST(PathCount, DiamondCounts) {
  Graph g = diamond();
  // Paths 0 -> 3 with <= 2 hops: 0-3, 0-1-3, 0-2-3.
  EXPECT_EQ(count_paths_bounded(g, 0, 3, 2), 3);
  EXPECT_EQ(count_paths_bounded(g, 0, 3, 1), 1);
  EXPECT_EQ(count_paths_bounded(g, 0, 3, 0), 0);
  EXPECT_EQ(count_paths_bounded(g, 0, 0, 5), 1);  // empty path
}

TEST(PathCount, ShortestPathDagCount) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(2, 3, 1);
  EXPECT_EQ(count_shortest_paths(g, 0, 3), 2);
  EXPECT_EQ(count_shortest_paths(g, 0, 0), 1);
  Graph h(2);
  EXPECT_EQ(count_shortest_paths(h, 0, 1), 0);  // unreachable
}

TEST(PathCount, NextHopCount) {
  Graph g = diamond();
  // From 0 toward 3: neighbors 1 (d=1), 2 (d=1), 3 (d=0); own d = 1.
  // All three make progress (d_nh <= d_src).
  EXPECT_EQ(count_progress_next_hops(g, 0, 3), 3);
  EXPECT_EQ(count_progress_next_hops(g, 3, 3), 0);
}

TEST(PathCount, CapStopsExplosion) {
  // Complete graph K8: astronomically many bounded paths; cap must bind.
  Graph g(8);
  for (int u = 0; u < 8; ++u) {
    for (int v = u + 1; v < 8; ++v) g.add_edge(u, v);
  }
  EXPECT_EQ(count_paths_bounded(g, 0, 7, 7, 100), 100);
}

class PathCountRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathCountRandom, BoundedCountMatchesBruteForce) {
  const Graph g = random_graph(8, 0.35, GetParam());
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (s == t) continue;
      for (int hops = 1; hops <= 4; ++hops) {
        EXPECT_EQ(count_paths_bounded(g, s, t, hops),
                  brute_force_paths(g, s, t, hops))
            << "s=" << s << " t=" << t << " hops=" << hops
            << " seed=" << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathCountRandom,
                         ::testing::Values(11, 12, 13, 14, 15));

TEST(PathCount, PolicyDispatch) {
  Graph g = diamond();
  PathCountOptions o;
  o.policy = PathCountPolicy::kBoundedSimplePaths;
  o.slack = 1;
  // hop distance 0->3 is 1; budget 2: paths 0-3, 0-1-3, 0-2-3.
  EXPECT_EQ(path_diversity(g, 0, 3, o), 3);
  o.policy = PathCountPolicy::kShortestPathDag;
  EXPECT_EQ(path_diversity(g, 0, 3, o), 1);  // unit weights: direct hop
  o.policy = PathCountPolicy::kNextHopCount;
  EXPECT_EQ(path_diversity(g, 0, 3, o), 3);
}

}  // namespace
}  // namespace pm::graph
