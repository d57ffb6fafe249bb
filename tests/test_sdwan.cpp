#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "graph/shortest_path.hpp"

#include "core/scenario.hpp"
#include "sdwan/dataplane.hpp"
#include "sdwan/failure.hpp"
#include "sdwan/hybrid_switch.hpp"
#include "sdwan/network.hpp"
#include "sdwan/ospf.hpp"
#include "topo/att.hpp"
#include "topo/generators.hpp"

namespace pm::sdwan {
namespace {

/// A 5-node topology mimicking the paper's Fig. 1 domain D2: a quad with a
/// chord, two controllers.
topo::Topology tiny_topology() {
  topo::Topology t("tiny");
  // Coordinates chosen so delays are small but distinct.
  t.add_node({"s0", 40.0, -100.0});
  t.add_node({"s1", 40.5, -100.0});
  t.add_node({"s2", 40.0, -99.0});
  t.add_node({"s3", 40.5, -99.0});
  t.add_node({"s4", 40.25, -98.5});
  t.add_link(0, 1);
  t.add_link(0, 2);
  t.add_link(1, 3);
  t.add_link(2, 3);
  t.add_link(2, 4);
  t.add_link(3, 4);
  return t;
}

Network tiny_network(double capacity = 100.0) {
  NetworkConfig cfg;
  cfg.controller_capacity = capacity;
  return Network(tiny_topology(), {{0, {0, 1}}, {4, {2, 3, 4}}}, cfg);
}

// ---------------------------------------------------------------------
// Network construction and invariants
// ---------------------------------------------------------------------

TEST(Network, RejectsBadDomains) {
  NetworkConfig cfg;
  // Switch in two domains.
  EXPECT_THROW(Network(tiny_topology(), {{0, {0, 1, 2}}, {4, {2, 3, 4}}},
                       cfg),
               std::invalid_argument);
  // Switch in no domain.
  EXPECT_THROW(Network(tiny_topology(), {{0, {0, 1}}, {4, {3, 4}}}, cfg),
               std::invalid_argument);
  // Controller outside its own domain.
  EXPECT_THROW(Network(tiny_topology(), {{0, {1, 2}}, {4, {0, 3, 4}}}, cfg),
               std::invalid_argument);
  // No domains at all.
  EXPECT_THROW(Network(tiny_topology(), {}, cfg), std::invalid_argument);
}

TEST(Network, RejectsDisconnectedTopology) {
  topo::Topology t;
  t.add_node({"a", 0, 0});
  t.add_node({"b", 1, 1});
  EXPECT_THROW(Network(std::move(t), {{0, {0, 1}}}, {}),
               std::invalid_argument);
}

TEST(Network, AllPairsFlows) {
  const Network net = tiny_network();
  EXPECT_EQ(net.flow_count(), 5 * 4);
  std::set<std::pair<SwitchId, SwitchId>> pairs;
  for (const Flow& f : net.flows()) {
    EXPECT_NE(f.src, f.dst);
    EXPECT_EQ(f.path.front(), f.src);
    EXPECT_EQ(f.path.back(), f.dst);
    EXPECT_TRUE(pairs.insert({f.src, f.dst}).second);
    // Path edges must exist.
    for (std::size_t i = 1; i < f.path.size(); ++i) {
      EXPECT_TRUE(net.topology().graph().has_edge(f.path[i - 1], f.path[i]));
    }
  }
}

TEST(Network, FlowByMatchInvertsTheFlowLayout) {
  for (const Network& net : {tiny_network(), core::make_att_network()}) {
    for (const Flow& f : net.flows()) {
      EXPECT_EQ(net.flow_by_match(f.src, f.dst), f.id);
    }
    const int n = net.switch_count();
    EXPECT_EQ(net.flow_by_match(1, 1), -1);
    EXPECT_EQ(net.flow_by_match(-1, 0), -1);
    EXPECT_EQ(net.flow_by_match(0, n), -1);
  }
}

TEST(Network, GammaConsistency) {
  const Network net = tiny_network();
  // Sum of per-switch flow counts == sum of path node counts.
  int gamma_total = 0;
  for (int s = 0; s < net.switch_count(); ++s) {
    gamma_total += net.flow_count_at(s);
  }
  int path_nodes = 0;
  for (const Flow& f : net.flows()) {
    path_nodes += static_cast<int>(f.path.size());
  }
  EXPECT_EQ(gamma_total, path_nodes);
  // Every switch sees at least its own 2*(n-1) endpoint flows.
  for (int s = 0; s < net.switch_count(); ++s) {
    EXPECT_GE(net.flow_count_at(s), 2 * (net.switch_count() - 1));
  }
}

TEST(Network, ControllerBookkeeping) {
  const Network net = tiny_network(123.0);
  EXPECT_EQ(net.controller_count(), 2);
  EXPECT_EQ(net.controller(0).location, 0);
  EXPECT_EQ(net.controller(1).location, 4);
  EXPECT_EQ(net.controller(0).name, "C0");
  EXPECT_DOUBLE_EQ(net.controller(1).capacity, 123.0);
  EXPECT_EQ(net.controller_of(1), 0);
  EXPECT_EQ(net.controller_of(3), 1);
  EXPECT_THROW(net.controller(5), std::out_of_range);
}

TEST(Network, NormalLoadSumsDomainGammas) {
  const Network net = tiny_network();
  double expected = 0.0;
  for (SwitchId s : net.controller(0).domain) {
    expected += net.flow_count_at(s);
  }
  EXPECT_DOUBLE_EQ(net.normal_load(0), expected);
}

TEST(Network, DelayMatrixMatchesShortestPaths) {
  const Network net = tiny_network();
  // Controller 0 sits at node 0: delay from node 0 is 0.
  EXPECT_DOUBLE_EQ(net.delay_ms(0, 0), 0.0);
  // Delay is positive elsewhere and finite everywhere.
  for (int s = 0; s < net.switch_count(); ++s) {
    for (int j = 0; j < net.controller_count(); ++j) {
      const double d = net.delay_ms(s, j);
      EXPECT_GE(d, 0.0);
      EXPECT_TRUE(std::isfinite(d));
    }
  }
}

TEST(Network, DiversityAndBeta) {
  const Network net = tiny_network();
  for (const Flow& f : net.flows()) {
    // Destination never has forwarding diversity.
    EXPECT_EQ(net.diversity(f.id, f.dst), 0);
    EXPECT_FALSE(net.beta(f.id, f.dst));
    // Off-path switches have zero diversity.
    for (int s = 0; s < net.switch_count(); ++s) {
      const bool on_path =
          std::find(f.path.begin(), f.path.end(), s) != f.path.end();
      if (!on_path) {
        EXPECT_EQ(net.diversity(f.id, s), 0);
      }
    }
    // beta <=> diversity >= 2; programmable_switches consistent.
    std::int64_t max_pro = 0;
    for (SwitchId s : f.path) {
      if (net.beta(f.id, s)) {
        EXPECT_GE(net.diversity(f.id, s), 2);
        max_pro += net.diversity(f.id, s);
      }
    }
    EXPECT_EQ(net.max_programmability(f.id), max_pro);
    for (SwitchId s : net.programmable_switches(f.id)) {
      EXPECT_TRUE(net.beta(f.id, s));
    }
  }
}

// ---------------------------------------------------------------------
// Failure scenarios
// ---------------------------------------------------------------------

TEST(Failure, EnumerationCountsMatchPaper) {
  const auto net = core::make_att_network();
  EXPECT_EQ(enumerate_failures(net, 1).size(), 6u);    // Fig. 4
  EXPECT_EQ(enumerate_failures(net, 2).size(), 15u);   // Fig. 5
  EXPECT_EQ(enumerate_failures(net, 3).size(), 20u);   // Fig. 6
  EXPECT_EQ(enumerate_failures(net, 0).size(), 1u);
  EXPECT_EQ(enumerate_failures(net, 6).size(), 1u);
  EXPECT_THROW(enumerate_failures(net, 7), std::invalid_argument);
}

TEST(Failure, ScenariosAreDistinctAndSorted) {
  const auto net = core::make_att_network();
  const auto scenarios = enumerate_failures(net, 2);
  std::set<std::vector<ControllerId>> seen;
  for (const auto& s : scenarios) {
    EXPECT_EQ(s.failed.size(), 2u);
    EXPECT_LT(s.failed[0], s.failed[1]);
    EXPECT_TRUE(seen.insert(s.failed).second);
  }
}

TEST(Failure, StateDerivesOfflineSets) {
  const Network net = tiny_network();
  FailureState st(net, {{0}});
  EXPECT_EQ(st.active_controllers(), std::vector<ControllerId>{1});
  EXPECT_EQ(st.offline_switches(), (std::vector<SwitchId>{0, 1}));
  EXPECT_TRUE(st.is_offline_switch(0));
  EXPECT_FALSE(st.is_offline_switch(3));
  EXPECT_FALSE(st.is_active_controller(0));
  EXPECT_TRUE(st.is_active_controller(1));
  // Offline flows: those traversing switch 0 or 1.
  for (FlowId l : st.offline_flows()) {
    const Flow& f = net.flow(l);
    const bool crosses =
        std::find(f.path.begin(), f.path.end(), 0) != f.path.end() ||
        std::find(f.path.begin(), f.path.end(), 1) != f.path.end();
    EXPECT_TRUE(crosses);
  }
}

TEST(Failure, RestCapacityClampedAndLabeled) {
  const Network net = tiny_network(10.0);  // capacity below normal load
  FailureState st(net, {{0}});
  EXPECT_DOUBLE_EQ(st.rest_capacity(1), 0.0);  // clamped at zero
  EXPECT_THROW(st.rest_capacity(0), std::invalid_argument);
  EXPECT_EQ(st.scenario().label(net), "(0)");
}

TEST(Failure, RejectsBadScenarios) {
  const Network net = tiny_network();
  EXPECT_THROW(FailureState(net, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(FailureState(net, {{7}}), std::invalid_argument);
  EXPECT_THROW(FailureState(net, {{0, 1}}), std::invalid_argument);  // all
}

TEST(Failure, RecoverableSubsetOfOffline) {
  const auto net = core::make_att_network();
  for (const auto& sc : enumerate_failures(net, 2)) {
    FailureState st(net, sc);
    std::set<FlowId> offline(st.offline_flows().begin(),
                             st.offline_flows().end());
    for (FlowId l : st.recoverable_flows()) {
      EXPECT_TRUE(offline.contains(l));
      EXPECT_FALSE(st.opportunities(l).empty());
      for (const auto& opp : st.opportunities(l)) {
        EXPECT_TRUE(st.is_offline_switch(opp.sw));
        EXPECT_GE(opp.p, 2);
        EXPECT_EQ(opp.p, net.diversity(l, opp.sw));
      }
    }
  }
}

TEST(Failure, ControllersByDelaySorted) {
  const auto net = core::make_att_network();
  FailureState st(net, {{3}});  // controller of node 13
  for (SwitchId s : st.offline_switches()) {
    const auto order = st.controllers_by_delay(s);
    EXPECT_EQ(order.size(), st.active_controllers().size());
    for (std::size_t k = 1; k < order.size(); ++k) {
      EXPECT_LE(net.delay_ms(s, order[k - 1]), net.delay_ms(s, order[k]));
    }
    EXPECT_EQ(order.front(), st.nearest_active_controller(s));
  }
}

TEST(Failure, IdealDelayMatchesDefinition) {
  const auto net = core::make_att_network();
  FailureState st(net, {{3, 4}});
  double expected = 0.0;
  for (SwitchId i : st.offline_switches()) {
    expected += st.gamma(i) *
                net.delay_ms(i, st.nearest_active_controller(i));
  }
  EXPECT_DOUBLE_EQ(st.ideal_total_delay(), expected);
}

TEST(Failure, TotalIterationsBoundsOfflinePathLength) {
  const auto net = core::make_att_network();
  FailureState st(net, {{3}});
  int expected = 0;
  for (FlowId l : st.offline_flows()) {
    int count = 0;
    for (SwitchId s : net.flow(l).path) {
      if (st.is_offline_switch(s)) ++count;
    }
    expected = std::max(expected, count);
  }
  EXPECT_EQ(st.max_offline_switches_on_path(), expected);
  EXPECT_GE(expected, 1);
}

// ---------------------------------------------------------------------
// OSPF legacy tables
// ---------------------------------------------------------------------

TEST(Ospf, NextHopsFollowShortestPaths) {
  const auto topo = tiny_topology();
  const auto tables = compute_legacy_tables(topo.graph());
  ASSERT_EQ(tables.size(), 5u);
  for (SwitchId s = 0; s < 5; ++s) {
    EXPECT_EQ(tables[static_cast<std::size_t>(s)].self(), s);
    EXPECT_EQ(tables[static_cast<std::size_t>(s)].next_hop(s), -1);
    for (SwitchId d = 0; d < 5; ++d) {
      if (d == s) continue;
      const auto path = graph::shortest_path(topo.graph(), s, d);
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(tables[static_cast<std::size_t>(s)].next_hop(d), path[1]);
    }
  }
}

TEST(Ospf, SetRouteAndBounds) {
  const auto topo = tiny_topology();
  auto tables = compute_legacy_tables(topo.graph());
  tables[0].set_route(4, 1);
  EXPECT_EQ(tables[0].next_hop(4), 1);
  EXPECT_THROW(tables[0].next_hop(9), std::out_of_range);
  EXPECT_THROW(tables[0].set_route(-1, 0), std::out_of_range);
}

// ---------------------------------------------------------------------
// Hybrid switch pipeline (Fig. 2)
// ---------------------------------------------------------------------

class HybridSwitchTest : public ::testing::Test {
 protected:
  HybridSwitchTest()
      : sw_(2, RoutingMode::kHybrid,
            compute_legacy_tables(tiny_topology().graph())[2]) {}
  HybridSwitch sw_;
};

TEST_F(HybridSwitchTest, SdnModeDropsOnMiss) {
  sw_.set_mode(RoutingMode::kSdn);
  const auto r = sw_.lookup({0, 4});
  EXPECT_FALSE(r.next_hop.has_value());
  EXPECT_FALSE(r.matched_flow_table);
}

TEST_F(HybridSwitchTest, SdnModeUsesFlowTable) {
  sw_.set_mode(RoutingMode::kSdn);
  sw_.install({10, {0, 4}, 3});
  const auto r = sw_.lookup({0, 4});
  ASSERT_TRUE(r.next_hop.has_value());
  EXPECT_EQ(*r.next_hop, 3);
  EXPECT_TRUE(r.matched_flow_table);
}

TEST_F(HybridSwitchTest, LegacyModeIgnoresFlowTable) {
  sw_.set_mode(RoutingMode::kLegacy);
  sw_.install({10, {0, 4}, 3});
  const auto r = sw_.lookup({0, 4});
  ASSERT_TRUE(r.next_hop.has_value());
  EXPECT_EQ(*r.next_hop, 4);  // legacy shortest-path next hop 2 -> 4
  EXPECT_FALSE(r.matched_flow_table);
}

TEST_F(HybridSwitchTest, HybridFallsThroughOnMiss) {
  const auto r = sw_.lookup({0, 4});
  ASSERT_TRUE(r.next_hop.has_value());
  EXPECT_EQ(*r.next_hop, 4);
  EXPECT_FALSE(r.matched_flow_table);
  // After installing a specific entry the flow table wins.
  sw_.install({10, {0, 4}, 3});
  const auto r2 = sw_.lookup({0, 4});
  EXPECT_EQ(*r2.next_hop, 3);
  EXPECT_TRUE(r2.matched_flow_table);
}

TEST_F(HybridSwitchTest, PriorityAndInstallOrder) {
  sw_.install({5, {0, 4}, 1});
  sw_.install({10, {0, 4}, 3});
  EXPECT_EQ(*sw_.lookup({0, 4}).next_hop, 3);  // higher priority wins
  sw_.install({10, {0, 4}, 0});
  EXPECT_EQ(*sw_.lookup({0, 4}).next_hop, 3);  // first-installed wins tie
}

TEST_F(HybridSwitchTest, WildcardsMatch) {
  sw_.install({7, {kAnyField, 4}, 3});
  EXPECT_EQ(*sw_.lookup({1, 4}).next_hop, 3);
  EXPECT_EQ(*sw_.lookup({0, 4}).next_hop, 3);
  // Non-matching destination falls to legacy.
  const auto r = sw_.lookup({4, 0});
  EXPECT_FALSE(r.matched_flow_table);
}

TEST_F(HybridSwitchTest, RemoveEntries) {
  sw_.install({10, {0, 4}, 3});
  sw_.install({11, {0, 4}, 1});
  EXPECT_EQ(sw_.flow_table_size(), 2u);
  EXPECT_EQ(sw_.remove({0, 4}), 2u);
  EXPECT_EQ(sw_.flow_table_size(), 0u);
  EXPECT_FALSE(sw_.lookup({0, 4}).matched_flow_table);
}

// ---------------------------------------------------------------------
// Dataplane tracing
// ---------------------------------------------------------------------

TEST(Dataplane, LegacyForwardingFollowsOspf) {
  const auto topo = tiny_topology();
  Dataplane dp(topo, RoutingMode::kLegacy);
  for (int s = 0; s < 5; ++s) {
    for (int d = 0; d < 5; ++d) {
      if (s == d) continue;
      const auto trace = dp.trace(s, {s, d});
      EXPECT_TRUE(trace.delivered) << trace.failure_reason;
      EXPECT_EQ(trace.hops, graph::shortest_path(topo.graph(), s, d));
    }
  }
}

TEST(Dataplane, SdnRerouteViaFlowEntries) {
  const auto topo = tiny_topology();
  Dataplane dp(topo, RoutingMode::kHybrid);
  // Divert 0 -> 4 along 0-1-3-4 instead of the shortest 0-2-4.
  dp.at(0).install({10, {0, 4}, 1});
  dp.at(1).install({10, {0, 4}, 3});
  dp.at(3).install({10, {0, 4}, 4});
  const auto trace = dp.trace(0, {0, 4});
  ASSERT_TRUE(trace.delivered);
  EXPECT_EQ(trace.hops, (std::vector<SwitchId>{0, 1, 3, 4}));
}

TEST(Dataplane, DetectsDropsAndLoops) {
  const auto topo = tiny_topology();
  Dataplane dp(topo, RoutingMode::kSdn);  // empty tables: drop everywhere
  const auto trace = dp.trace(0, {0, 4});
  EXPECT_FALSE(trace.delivered);
  EXPECT_NE(trace.failure_reason.find("dropped"), std::string::npos);

  Dataplane loopy(topo, RoutingMode::kHybrid);
  loopy.at(0).install({10, {0, 4}, 1});
  loopy.at(1).install({10, {0, 4}, 0});
  const auto loop = loopy.trace(0, {0, 4});
  EXPECT_FALSE(loop.delivered);
  EXPECT_NE(loop.failure_reason.find("loop"), std::string::npos);
}

}  // namespace
}  // namespace pm::sdwan
