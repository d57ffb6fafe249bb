#include <gtest/gtest.h>

#include <set>

#include "graph/path_count.hpp"
#include "topo/att.hpp"
#include "topo/generators.hpp"
#include "topo/geo.hpp"
#include "topo/gml.hpp"
#include "topo/topology.hpp"

namespace pm::topo {
namespace {

// ---------------------------------------------------------------------
// geo
// ---------------------------------------------------------------------

TEST(Geo, HaversineKnownDistances) {
  // New York <-> Los Angeles: ~3936 km great-circle.
  EXPECT_NEAR(haversine_km(40.71, -74.01, 34.05, -118.24), 3936.0, 40.0);
  // London <-> Paris: ~344 km.
  EXPECT_NEAR(haversine_km(51.507, -0.128, 48.857, 2.351), 344.0, 5.0);
}

TEST(Geo, HaversineProperties) {
  EXPECT_DOUBLE_EQ(haversine_km(10, 20, 10, 20), 0.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(haversine_km(1, 2, 3, 4), haversine_km(3, 4, 1, 2));
  // Antipodal points: half the circumference, ~20015 km.
  EXPECT_NEAR(haversine_km(0, 0, 0, 180), 20015.0, 10.0);
}

TEST(Geo, PropagationDelay) {
  // 2000 km at 2e8 m/s = 10 ms.
  EXPECT_DOUBLE_EQ(propagation_delay_ms(2000.0), 10.0);
  EXPECT_DOUBLE_EQ(propagation_delay_ms(0.0), 0.0);
}

// ---------------------------------------------------------------------
// Topology container
// ---------------------------------------------------------------------

TEST(Topology, AddNodesAndLinks) {
  Topology t("test");
  const auto a = t.add_node({"A", 0.0, 0.0});
  const auto b = t.add_node({"B", 0.0, 1.0});
  t.add_link(a, b);
  EXPECT_EQ(t.node_count(), 2);
  EXPECT_EQ(t.link_count(), 1u);
  // 1 degree of longitude at the equator is ~111.19 km -> ~0.556 ms.
  EXPECT_NEAR(t.graph().edge_weight(a, b), 0.556, 0.01);
  EXPECT_EQ(t.find_node("B"), b);
  EXPECT_FALSE(t.find_node("missing").has_value());
}

TEST(Topology, ExplicitDelayLink) {
  Topology t;
  const auto a = t.add_node({"A", 0, 0});
  const auto b = t.add_node({"B", 0, 0});
  t.add_link_with_delay(a, b, 7.5);
  EXPECT_DOUBLE_EQ(t.graph().edge_weight(a, b), 7.5);
}

TEST(Topology, EdgesSurviveNodeAddition) {
  Topology t;
  const auto a = t.add_node({"A", 0, 0});
  const auto b = t.add_node({"B", 1, 1});
  t.add_link(a, b);
  t.add_node({"C", 2, 2});
  EXPECT_TRUE(t.graph().has_edge(a, b));
  EXPECT_EQ(t.node_count(), 3);
}

// ---------------------------------------------------------------------
// GML
// ---------------------------------------------------------------------

constexpr const char* kSmallGml = R"(
# a comment
graph [
  label "Tiny"
  directed 0
  node [ id 10 label "X" Latitude 40.0 Longitude -74.0 ]
  node [ id 20 label "Y" Latitude 41.0 Longitude -75.0 ]
  node [ id 30 label "Z" Latitude 42.0 Longitude -76.0 ]
  edge [ source 10 target 20 ]
  edge [ source 20 target 30 LinkLabel "OC-48" ]
  edge [ source 20 target 30 ]
  edge [ source 10 target 10 ]
]
)";

TEST(Gml, ParsesNodesEdgesAndQuirks) {
  const Topology t = parse_gml(kSmallGml);
  EXPECT_EQ(t.name(), "Tiny");
  EXPECT_EQ(t.node_count(), 3);          // ids 10/20/30 compacted
  EXPECT_EQ(t.link_count(), 2u);         // duplicate + self-loop skipped
  EXPECT_EQ(t.node(0).label, "X");
  EXPECT_DOUBLE_EQ(t.node(1).latitude, 41.0);
  EXPECT_TRUE(t.graph().has_edge(0, 1));
  EXPECT_TRUE(t.graph().has_edge(1, 2));
}

TEST(Gml, NoCoordinatesFallsBackToUnitDelay) {
  const Topology t = parse_gml(R"(graph [
    node [ id 0 label "a" ]
    node [ id 1 label "b" ]
    edge [ source 0 target 1 ]
  ])");
  EXPECT_DOUBLE_EQ(t.graph().edge_weight(0, 1), 1.0);
}

TEST(Gml, ErrorsCarryContext) {
  EXPECT_THROW(parse_gml("nodes [ ]"), GmlError);
  EXPECT_THROW(parse_gml("graph [ node [ label \"no id\" ] ]"), GmlError);
  EXPECT_THROW(parse_gml("graph [ edge [ source 0 target 1 ] ]"), GmlError);
  EXPECT_THROW(parse_gml("graph [ node [ id 0 ] node [ id 0 ] ]"), GmlError);
  EXPECT_THROW(parse_gml("graph [ \"unterminated"), GmlError);
  EXPECT_THROW(parse_gml("graph ["), GmlError);
  try {
    parse_gml("graph [\n\n  \"oops\" ]");
    FAIL() << "expected GmlError";
  } catch (const GmlError& e) {
    EXPECT_GE(e.line(), 1);
  }
}

TEST(Gml, RoundTrip) {
  const Topology original = att_topology();
  const Topology reparsed = parse_gml(to_gml(original));
  EXPECT_EQ(reparsed.name(), original.name());
  ASSERT_EQ(reparsed.node_count(), original.node_count());
  ASSERT_EQ(reparsed.link_count(), original.link_count());
  for (int i = 0; i < original.node_count(); ++i) {
    EXPECT_EQ(reparsed.node(i).label, original.node(i).label);
    EXPECT_NEAR(reparsed.node(i).latitude, original.node(i).latitude, 1e-6);
  }
  for (const auto& e : original.graph().edges()) {
    EXPECT_TRUE(reparsed.graph().has_edge(e.u, e.v));
    EXPECT_NEAR(reparsed.graph().edge_weight(e.u, e.v), e.weight, 1e-6);
  }
}

TEST(Gml, LoadMissingFileThrows) {
  EXPECT_THROW(load_gml_file("/nonexistent/path.gml"), std::runtime_error);
}

// ---------------------------------------------------------------------
// Embedded ATT backbone
// ---------------------------------------------------------------------

TEST(Att, DimensionsMatchPaper) {
  const Topology t = att_topology();
  EXPECT_EQ(t.node_count(), 25);   // "25 nodes"
  EXPECT_EQ(t.link_count(), 56u);  // "112 links" counted directionally
  EXPECT_TRUE(graph::is_connected(t.graph()));
}

TEST(Att, DomainsPartitionSwitchesAndContainControllers) {
  const auto domains = att_domains();
  EXPECT_EQ(domains.size(), 6u);
  std::set<graph::NodeId> seen;
  for (const auto& [controller, members] : domains) {
    bool has_controller = false;
    for (graph::NodeId s : members) {
      EXPECT_TRUE(seen.insert(s).second) << "switch in two domains";
      if (s == controller) has_controller = true;
    }
    EXPECT_TRUE(has_controller);
  }
  EXPECT_EQ(seen.size(), 25u);
}

TEST(Att, ControllerNodesMatchTable3) {
  const auto nodes = att_controller_nodes();
  EXPECT_EQ(nodes, (std::vector<graph::NodeId>{2, 5, 6, 13, 20, 22}));
  const auto domains = att_domains();
  for (graph::NodeId c : nodes) EXPECT_TRUE(domains.contains(c));
}

TEST(Att, PaperFlowCountsShape) {
  const auto counts = att_paper_flow_counts();
  ASSERT_EQ(counts.size(), 25u);
  // Table III: switch 13 is the hub with 213 flows, the maximum.
  EXPECT_EQ(counts[13], 213);
  EXPECT_EQ(*std::max_element(counts.begin(), counts.end()), 213);
  // Total of Table III.
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 2055);
}

TEST(Att, EveryLinkLiesOnAShortCycle) {
  // Needed so flows between adjacent nodes can have beta = 1 at their
  // source under the bounded path-count policy (DESIGN.md).
  const Topology t = att_topology();
  for (const auto& e : t.graph().edges()) {
    const std::int64_t paths =
        graph::count_paths_bounded(t.graph(), e.u, e.v, 3);
    EXPECT_GE(paths, 2) << "edge {" << e.u << ", " << e.v
                        << "} has no detour within 3 hops";
  }
}

TEST(Att, CoordinatesAreUsCities) {
  const Topology t = att_topology();
  for (int i = 0; i < t.node_count(); ++i) {
    const Node& n = t.node(i);
    EXPECT_GT(n.latitude, 24.0) << n.label;
    EXPECT_LT(n.latitude, 50.0) << n.label;
    EXPECT_GT(n.longitude, -125.0) << n.label;
    EXPECT_LT(n.longitude, -66.0) << n.label;
    EXPECT_FALSE(n.label.empty());
  }
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

TEST(Generators, WaxmanConnectedAndDeterministic) {
  const Topology a = waxman(30, 0.6, 0.4, 42);
  const Topology b = waxman(30, 0.6, 0.4, 42);
  EXPECT_EQ(a.node_count(), 30);
  EXPECT_TRUE(graph::is_connected(a.graph()));
  EXPECT_EQ(a.link_count(), b.link_count());
  for (const auto& e : a.graph().edges()) {
    EXPECT_TRUE(b.graph().has_edge(e.u, e.v));
  }
  const Topology c = waxman(30, 0.6, 0.4, 43);
  // Different seed, (almost surely) different edge set.
  bool differs = c.link_count() != a.link_count();
  if (!differs) {
    for (const auto& e : a.graph().edges()) {
      if (!c.graph().has_edge(e.u, e.v)) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Generators, WaxmanDensityGrowsWithAlpha) {
  const Topology sparse = waxman(40, 0.1, 0.3, 7);
  const Topology dense = waxman(40, 0.9, 0.3, 7);
  EXPECT_GT(dense.link_count(), sparse.link_count());
}

TEST(Generators, RingWithChords) {
  const Topology t = ring_with_chords(10, 3, 5);
  EXPECT_EQ(t.node_count(), 10);
  EXPECT_EQ(t.link_count(), 13u);
  EXPECT_TRUE(graph::is_connected(t.graph()));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(t.graph().has_edge(i, (i + 1) % 10));
  }
  EXPECT_THROW(ring_with_chords(2, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace pm::topo
