// Additional cross-cutting property tests that pin down behaviours the
// per-module suites touch only incidentally.
#include <gtest/gtest.h>

#include <random>

#include "core/fmssm.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/retroflow.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "graph/path_count.hpp"
#include "graph/shortest_path.hpp"
#include "topo/generators.hpp"
#include "topo/gml.hpp"

namespace pm {
namespace {

// ---------------------------------------------------------------------
// Graph symmetry properties on undirected graphs
// ---------------------------------------------------------------------

TEST(GraphProperties, ShortestPathCountIsSymmetric) {
  // On an undirected graph the number of hop-shortest u->v paths equals
  // the number of v->u paths (reverse every path).
  const topo::Topology t = topo::waxman(20, 0.5, 0.3, 5);
  for (int u = 0; u < t.node_count(); ++u) {
    for (int v = u + 1; v < t.node_count(); ++v) {
      EXPECT_EQ(graph::count_shortest_paths(t.graph(), u, v),
                graph::count_shortest_paths(t.graph(), v, u))
          << u << "<->" << v;
    }
  }
}

TEST(GraphProperties, BoundedCountIsSymmetricAtEqualBudget) {
  const topo::Topology t = topo::ring_with_chords(12, 4, 9);
  const auto& g = t.graph();
  for (int u = 0; u < g.node_count(); ++u) {
    for (int v = u + 1; v < g.node_count(); ++v) {
      const int d = graph::hop_distances(g, v)[static_cast<std::size_t>(u)];
      ASSERT_GE(d, 0);
      EXPECT_EQ(graph::count_paths_bounded(g, u, v, d + 1),
                graph::count_paths_bounded(g, v, u, d + 1));
    }
  }
}

TEST(GraphProperties, DiversityNonDecreasingInBudget) {
  const topo::Topology t = topo::waxman(18, 0.5, 0.3, 6);
  const auto& g = t.graph();
  std::mt19937_64 rng(4);
  std::uniform_int_distribution<int> pick(0, g.node_count() - 1);
  for (int trial = 0; trial < 40; ++trial) {
    const int u = pick(rng);
    const int v = pick(rng);
    if (u == v) continue;
    std::int64_t prev = 0;
    for (int budget = 1; budget <= 5; ++budget) {
      const std::int64_t c = graph::count_paths_bounded(g, u, v, budget);
      EXPECT_GE(c, prev);
      prev = c;
    }
  }
}

// ---------------------------------------------------------------------
// FMSSM model-level properties
// ---------------------------------------------------------------------

TEST(FmssmProperties, RUpperBoundEqualsWeakestFlow) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{3, 4}});
  const core::FmssmProblem p = core::build_fmssm(state);
  double weakest = 1e18;
  for (sdwan::FlowId l : state.recoverable_flows()) {
    double best = 0.0;
    for (const auto& opp : state.opportunities(l)) {
      best += static_cast<double>(opp.p);
    }
    weakest = std::min(weakest, best);
  }
  EXPECT_DOUBLE_EQ(p.model.variable(p.r_var).upper, weakest);
}

TEST(FmssmProperties, LambdaOverrideRespected) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{4}});
  const core::FmssmProblem p =
      core::build_fmssm(state, {.lambda = 0.125, .delay_constraint = true});
  EXPECT_DOUBLE_EQ(p.lambda, 0.125);
  // Every w variable's objective coefficient is lambda * p.
  for (const auto& [key, var] : p.w_var) {
    const auto [sw, ctrl, flow] = key;
    (void)ctrl;
    EXPECT_DOUBLE_EQ(
        p.model.variable(var).objective,
        0.125 * static_cast<double>(net.diversity(flow, sw)));
  }
}

TEST(FmssmProperties, DelayConstraintPresenceControlsRowCount) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{4}});
  const auto with = core::build_fmssm(state, {.delay_constraint = true});
  const auto without = core::build_fmssm(state, {.delay_constraint = false});
  EXPECT_EQ(with.model.constraint_count(),
            without.model.constraint_count() + 1);
}

// ---------------------------------------------------------------------
// PM/PG internal consistency on the ATT scenario
// ---------------------------------------------------------------------

TEST(AlgorithmProperties, PmAssignmentsImplyOpportunities) {
  const sdwan::Network net = core::make_att_network();
  for (int k = 1; k <= 3; ++k) {
    for (const auto& sc : sdwan::enumerate_failures(net, k)) {
      const sdwan::FailureState st(net, sc);
      const auto plan = core::run_pm(st);
      for (const auto& [sw, flow] : plan.sdn_assignments) {
        const auto& opps = st.opportunities(flow);
        EXPECT_TRUE(std::any_of(opps.begin(), opps.end(),
                                [&](const auto& o) { return o.sw == sw; }))
            << sc.label(net) << " (" << sw << ", " << flow << ")";
      }
    }
  }
}

TEST(AlgorithmProperties, PgSlicesRespectPerControllerCapacity) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState st(net, {{3, 4, 5}});
  const auto plan = core::run_pg(st);
  const auto loads = core::controller_loads(st, plan);
  for (const auto& [j, load] : loads) {
    EXPECT_LE(load, st.rest_capacity(j) + 1e-9)
        << net.controller(j).name;
  }
  // Every assignment has an explicit per-pair controller.
  ASSERT_EQ(plan.assignment_controller.size(), plan.sdn_assignments.size());
  for (const sdwan::ControllerId j : plan.assignment_controller) {
    EXPECT_GE(j, 0);
  }
}

TEST(AlgorithmProperties, SolveTimesAreRecorded) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState st(net, {{2}});
  EXPECT_GT(core::run_pm(st).solve_seconds, 0.0);
  EXPECT_GT(core::run_pg(st).solve_seconds, 0.0);
  EXPECT_GT(core::run_retroflow(st).solve_seconds, 0.0);
}

// ---------------------------------------------------------------------
// ctrl protocol corner cases
// ---------------------------------------------------------------------

TEST(CtrlProperties, MessageKindsNamedDistinctly) {
  using namespace ctrl;
  Message m;
  m.body = Heartbeat{};
  EXPECT_EQ(message_kind(m), "heartbeat");
  m.body = RoleRequest{};
  EXPECT_EQ(message_kind(m), "role-request");
  m.body = RoleReply{};
  EXPECT_EQ(message_kind(m), "role-reply");
  m.body = FlowMod{};
  EXPECT_EQ(message_kind(m), "flow-mod");
  m.body = FlowModAck{};
  EXPECT_EQ(message_kind(m), "flow-mod-ack");
}

TEST(CtrlProperties, NonMasterFlowModIgnored) {
  const sdwan::Network net = core::make_att_network();
  sim::EventQueue queue;
  ctrl::ControlChannel channel(net, queue);
  sdwan::Dataplane dp(net.topology(), sdwan::RoutingMode::kHybrid);
  ctrl::SwitchAgent agent(5, dp.at(5), channel);
  agent.attach();
  // Two controller endpoints; only #0 becomes master.
  channel.attach(ctrl::controller_endpoint(net, 0),
                 net.controller(0).location, [](const ctrl::Message&) {});
  channel.attach(ctrl::controller_endpoint(net, 1),
                 net.controller(1).location, [](const ctrl::Message&) {});
  ctrl::Message role;
  role.from = ctrl::controller_endpoint(net, 0);
  role.to = 5;
  role.body = ctrl::RoleRequest{0};
  channel.send(role);
  queue.run();
  ASSERT_EQ(agent.master(), 0);

  // A flow-mod from the non-master must be ignored (no install, no ack).
  ctrl::Message rogue;
  rogue.from = ctrl::controller_endpoint(net, 1);
  rogue.to = 5;
  ctrl::FlowMod body;
  body.entry = {10, {0, 24}, 13};
  body.xid = 99;
  rogue.body = body;
  channel.send(rogue);
  queue.run();
  EXPECT_EQ(agent.flow_mods_applied(), 0u);
  EXPECT_EQ(dp.at(5).flow_table_size(), 0u);

  // The same mod from the master applies.
  ctrl::Message legit = rogue;
  legit.from = ctrl::controller_endpoint(net, 0);
  channel.send(legit);
  queue.run();
  EXPECT_EQ(agent.flow_mods_applied(), 1u);
  EXPECT_EQ(dp.at(5).flow_table_size(), 1u);
}

// ---------------------------------------------------------------------
// GML robustness on Topology-Zoo-like input
// ---------------------------------------------------------------------

TEST(GmlProperties, VendorKeysAndNestedBlocksIgnored) {
  const topo::Topology t = topo::parse_gml(R"(
    Creator "Topology Zoo Toolset"
    graph [
      label "Vendorish"
      Network "X"
      GeoLocation "Country"
      node [ id 0 label "A" Latitude 10.0 Longitude 20.0
             Internal 1 type "PoP" ]
      node [ id 5 label "B" Latitude 11.0 Longitude 21.0
             hyperedge 0 ]
      edge [ source 0 target 5 LinkLabel "OC-192"
             extra [ nested 1 deeper [ key "v" ] ] ]
    ]
  )");
  EXPECT_EQ(t.node_count(), 2);
  EXPECT_EQ(t.link_count(), 1u);
  EXPECT_EQ(t.node(1).label, "B");
}

// ---------------------------------------------------------------------
// Transactional recovery properties
// ---------------------------------------------------------------------

TEST(CtrlProperties, ConvergenceImpliesDeliveryAndCleanAudit) {
  // Across 50 random channel-fault configurations (loss, jitter,
  // duplication, reordering — each seeded and reproducible), successive
  // controller failures either fail to converge within the horizon or
  // converge into a CONSISTENT state: every flow deliverable and the
  // post-run audit clean. There is no third outcome — "converged but
  // mixed/orphaned/overloaded" is exactly what the transaction layer
  // exists to rule out.
  const sdwan::Network net = core::make_att_network();
  int converged_runs = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    std::mt19937 rng(static_cast<unsigned>(i));
    std::uniform_real_distribution<double> u(0.0, 1.0);
    ctrl::ChannelFaultModel faults;
    faults.seed = i;
    faults.drop_probability = 0.15 * u(rng);
    faults.jitter_ms = 25.0 * u(rng);
    faults.duplicate_probability = 0.05 * u(rng);
    faults.reorder_probability = 0.02 * u(rng);

    ctrl::ControllerConfig config;
    config.suspicion_checks = 3;
    ctrl::ControlSimulation simulation(
        net,
        [](const sdwan::FailureState& state,
           const core::RecoveryPlan* previous) {
          core::PmOptions opts;
          opts.seed = previous;
          return core::run_pm(state, opts);
        },
        config);
    simulation.set_fault_model(faults);
    simulation.fail_controller_at(3, 500.0);
    simulation.fail_controller_at(4, 3000.0);
    const ctrl::SimulationReport report = simulation.run(15000.0);

    if (!report.converged_at.has_value()) continue;
    ++converged_runs;
    EXPECT_TRUE(report.all_flows_deliverable)
        << "config " << i << " converged but broke delivery";
    EXPECT_TRUE(report.audit_clean)
        << "config " << i << " converged with "
        << report.audit_violations << " audit violation(s)";
  }
  // The property is vacuous if nothing ever converges — most configs
  // must (loss tops out at 15% and the horizon is generous).
  EXPECT_GE(converged_runs, 40);
}

}  // namespace
}  // namespace pm
