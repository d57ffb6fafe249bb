#include <gtest/gtest.h>

#include <set>

#include "graph/shortest_path.hpp"
#include "sdwan/network.hpp"
#include "topo/att.hpp"
#include "topo/generators.hpp"
#include "topo/placement.hpp"

namespace pm::topo {
namespace {

void expect_partition(const Topology& topo, const Domains& domains, int k) {
  EXPECT_EQ(domains.size(), static_cast<std::size_t>(k));
  std::set<graph::NodeId> seen;
  for (const auto& [controller, members] : domains) {
    bool contains_controller = false;
    for (graph::NodeId v : members) {
      EXPECT_TRUE(seen.insert(v).second) << "node in two domains";
      if (v == controller) contains_controller = true;
    }
    EXPECT_TRUE(contains_controller)
        << "controller " << controller << " outside its domain";
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(topo.node_count()));
}

TEST(Placement, KCenterPartitions) {
  const Topology topo = att_topology();
  for (int k : {1, 2, 4, 6, 10}) {
    expect_partition(topo, k_center_domains(topo, k), k);
  }
}

TEST(Placement, KCenterValidatesK) {
  const Topology topo = att_topology();
  EXPECT_THROW(k_center_domains(topo, 0), std::invalid_argument);
  EXPECT_THROW(k_center_domains(topo, 26), std::invalid_argument);
}

TEST(Placement, MoreControllersNeverWorsenWorstDelay) {
  const Topology topo = att_topology();
  double prev = 1e18;
  for (int k : {1, 2, 3, 4, 6, 8}) {
    const double worst = worst_case_delay_ms(topo, k_center_domains(topo, k));
    EXPECT_LE(worst, prev + 1e-9) << "k=" << k;
    prev = worst;
  }
}

TEST(Placement, NodesJoinNearestCenter) {
  const Topology topo = att_topology();
  const Domains domains = k_center_domains(topo, 4);
  std::vector<graph::NodeId> centers;
  for (const auto& [c, members] : domains) {
    (void)members;
    centers.push_back(c);
  }
  for (const auto& [c, members] : domains) {
    const auto sssp = graph::dijkstra(topo.graph(), c);
    for (graph::NodeId v : members) {
      const double mine = sssp.dist[static_cast<std::size_t>(v)];
      for (graph::NodeId other : centers) {
        const auto other_sssp = graph::dijkstra(topo.graph(), other);
        EXPECT_GE(other_sssp.dist[static_cast<std::size_t>(v)] + 1e-9, mine)
            << "node " << v << " not at its nearest center";
      }
    }
  }
}

TEST(Placement, WorksOnGeneratedTopologies) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Topology topo = waxman(30, 0.5, 0.3, seed);
    const Domains domains = k_center_domains(topo, 5);
    expect_partition(topo, domains, 5);
    // The placement must produce a usable Network.
    sdwan::NetworkConfig cfg;
    cfg.controller_capacity = 10000.0;
    EXPECT_NO_THROW(sdwan::Network(topo, domains, cfg));
  }
}

TEST(Placement, Deterministic) {
  const Topology topo = att_topology();
  const Domains a = k_center_domains(topo, 6);
  const Domains b = k_center_domains(topo, 6);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pm::topo
