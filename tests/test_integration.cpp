// Cross-module integration tests on the full ATT evaluation scenario:
// the paper's qualitative claims, end-to-end, at the real problem size
// (Optimal excluded here for runtime; its equivalence is certified on
// small instances in test_core and exercised at scale by the benches).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "sdwan/dataplane.hpp"
#include "topo/att.hpp"

namespace pm::core {
namespace {

using sdwan::FailureScenario;
using sdwan::FailureState;
using sdwan::FlowId;
using sdwan::Network;
using sdwan::SwitchId;

const Network& att() {
  static const Network net = make_att_network();
  return net;
}

FailureScenario by_nodes(const Network& net, std::set<int> nodes) {
  FailureScenario sc;
  for (int j = 0; j < net.controller_count(); ++j) {
    if (nodes.contains(net.controller(j).location)) sc.failed.push_back(j);
  }
  return sc;
}

// ---------------------------------------------------------------------
// Scenario-level sanity (Sec. VI-A)
// ---------------------------------------------------------------------

TEST(AttScenario, SixHundredFlows) {
  EXPECT_EQ(att().flow_count(), 600);  // 25 * 24 directed pairs
  EXPECT_EQ(att().controller_count(), 6);
}

TEST(AttScenario, NormalLoadFitsCapacity) {
  for (int j = 0; j < att().controller_count(); ++j) {
    EXPECT_LE(att().normal_load(j), att().controller(j).capacity)
        << att().controller(j).name;
  }
}

TEST(AttScenario, Switch13IsTheHub) {
  int max_gamma = 0;
  SwitchId hub = -1;
  for (int s = 0; s < att().switch_count(); ++s) {
    if (att().flow_count_at(s) > max_gamma) {
      max_gamma = att().flow_count_at(s);
      hub = s;
    }
  }
  EXPECT_EQ(hub, 13);
}

TEST(AttScenario, HubExceedsEveryRestCapacityUnder1320) {
  // The pivotal property behind the paper's 315% headline (Sec. VI-C-2).
  const FailureState st(att(), by_nodes(att(), {13, 20}));
  for (sdwan::ControllerId j : st.active_controllers()) {
    EXPECT_GT(st.gamma(13), st.rest_capacity(j))
        << "switch 13 must not fit on " << att().controller(j).name;
  }
}

// ---------------------------------------------------------------------
// One-controller failures: Fig. 4's claims
// ---------------------------------------------------------------------

class OneFailure : public ::testing::TestWithParam<int> {};

TEST_P(OneFailure, AllPerFlowAlgorithmsRecoverEverything) {
  const FailureScenario sc{{GetParam()}};
  RunnerOptions opts;
  opts.run_optimal = false;
  const CaseResult r = run_case(att(), sc, opts);
  for (const auto& [name, v] : r.violations) {
    EXPECT_TRUE(v.empty()) << name << ": " << v.front();
  }
  // Fig. 4(c): under one failure there is ample capacity — PM and PG
  // recover 100% of recoverable flows with identical totals (Fig. 4(a,b)).
  EXPECT_DOUBLE_EQ(r.metrics.at("PM").recovered_flow_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r.metrics.at("PG").recovered_flow_fraction, 1.0);
  EXPECT_EQ(r.metrics.at("PM").total_programmability,
            r.metrics.at("PG").total_programmability);
  // Fig. 4(d): PG pays the middle layer on every message.
  EXPECT_GT(r.metrics.at("PG").per_flow_overhead_ms,
            r.metrics.at("PM").per_flow_overhead_ms);
}

INSTANTIATE_TEST_SUITE_P(AllSix, OneFailure, ::testing::Range(0, 6));

// ---------------------------------------------------------------------
// The (13, 20) headline case: Fig. 5's claims
// ---------------------------------------------------------------------

class Headline : public ::testing::Test {
 protected:
  static const CaseResult& result() {
    static const CaseResult r = [] {
      RunnerOptions opts;
      opts.run_optimal = false;
      return run_case(att(), by_nodes(att(), {13, 20}), opts);
    }();
    return r;
  }
};

TEST_F(Headline, RetroFlowStrandsTheHub) {
  const FailureState st(att(), by_nodes(att(), {13, 20}));
  const RecoveryPlan plan = run_retroflow(st);
  EXPECT_FALSE(plan.mapping.contains(13));
  EXPECT_LT(result().metrics.at("RetroFlow").recovered_flow_fraction, 1.0);
  EXPECT_EQ(result().metrics.at("RetroFlow").least_programmability, 0);
}

TEST_F(Headline, PmRecoversTheHubFineGrained) {
  const FailureState st(att(), by_nodes(att(), {13, 20}));
  const RecoveryPlan plan = run_pm(st);
  EXPECT_TRUE(plan.mapping.contains(13));
  // Fine granularity: PM controls only part of s13's flows there.
  std::size_t at_13 = 0;
  for (const auto& a : plan.sdn_assignments) {
    if (a.sw == 13) ++at_13;
  }
  EXPECT_GT(at_13, 0u);
  EXPECT_LT(at_13, static_cast<std::size_t>(st.gamma(13)));
}

TEST_F(Headline, PmDoublesRetroFlowTotalProgrammability) {
  const auto& m = result().metrics;
  EXPECT_GE(m.at("PM").total_programmability,
            2 * m.at("RetroFlow").total_programmability)
      << "the paper reports up to 315% for this case";
  EXPECT_DOUBLE_EQ(m.at("PM").recovered_flow_fraction, 1.0);
  EXPECT_GE(m.at("PM").least_programmability, 2);
}

TEST_F(Headline, BalancedProgrammability) {
  // Fig. 5(a): PM/PG keep min programmability at 2 while RetroFlow's is 0.
  const auto& m = result().metrics;
  EXPECT_GE(m.at("PM").least_programmability, 2);
  EXPECT_GE(m.at("PG").least_programmability, 2);
  EXPECT_EQ(m.at("RetroFlow").least_programmability, 0);
}

TEST_F(Headline, RetroFlowWastesControlResource) {
  // Fig. 5(e) reading per Sec. VI-C-2: RetroFlow "recovers a small number
  // of offline flows with much higher control resource" — whole-switch
  // adoption pays gamma_i units (including beta = 0 entries) per switch,
  // so its capacity cost per recovered flow far exceeds PM's.
  const auto& m = result().metrics;
  const auto per_flow = [](const RecoveryMetrics& x) {
    return x.used_control_resource /
           std::max<double>(1.0, static_cast<double>(x.recovered_flow_count));
  };
  EXPECT_GT(per_flow(m.at("RetroFlow")), 1.2 * per_flow(m.at("PM")));
}

// ---------------------------------------------------------------------
// Whole two-failure sweep: orderings that must hold everywhere
// ---------------------------------------------------------------------

TEST(TwoFailureSweep, OrderingsHoldInEveryCase) {
  RunnerOptions opts;
  opts.run_optimal = false;
  const auto results = run_failure_sweep(att(), 2, opts);
  ASSERT_EQ(results.size(), 15u);
  for (const auto& r : results) {
    const auto& m = r.metrics;
    for (const auto& [name, v] : r.violations) {
      EXPECT_TRUE(v.empty()) << r.label << "/" << name;
    }
    // PG relaxes PM's constraints; both dominate RetroFlow.
    EXPECT_GE(m.at("PG").total_programmability,
              m.at("PM").total_programmability)
        << r.label;
    EXPECT_GE(m.at("PM").total_programmability,
              m.at("RetroFlow").total_programmability)
        << r.label;
    EXPECT_GE(m.at("PM").least_programmability,
              m.at("RetroFlow").least_programmability)
        << r.label;
    EXPECT_GE(m.at("PM").recovered_flow_fraction,
              m.at("RetroFlow").recovered_flow_fraction)
        << r.label;
    // PG's overhead premium (middle layer) holds per case.
    EXPECT_GT(m.at("PG").per_flow_overhead_ms,
              m.at("PM").per_flow_overhead_ms)
        << r.label;
  }
}

// ---------------------------------------------------------------------
// Whole three-failure sweep (Fig. 6 without Optimal)
// ---------------------------------------------------------------------

TEST(ThreeFailureSweep, OrderingsHoldInEveryCase) {
  RunnerOptions opts;
  opts.run_optimal = false;
  const auto results = run_failure_sweep(att(), 3, opts);
  ASSERT_EQ(results.size(), 20u);
  // The cases where PM and PG leave some recoverable flow unrecovered.
  const std::set<std::string> partial = {"(2, 5, 20)", "(2, 6, 20)",
                                         "(5, 6, 20)", "(5, 13, 20)",
                                         "(6, 13, 20)"};
  for (const auto& r : results) {
    const auto& m = r.metrics;
    for (const auto& [name, v] : r.violations) {
      EXPECT_TRUE(v.empty()) << r.label << "/" << name;
    }
    EXPECT_GE(m.at("PM").total_programmability,
              m.at("RetroFlow").total_programmability)
        << r.label;
    EXPECT_GE(m.at("PM").least_programmability,
              m.at("RetroFlow").least_programmability)
        << r.label;
    EXPECT_GE(m.at("PG").total_programmability,
              m.at("PM").total_programmability)
        << r.label;
    // Fig. 6(c): full recovery in exactly the 15 other cases.
    const bool full = !partial.contains(r.label);
    for (const char* algo : {"PM", "PG"}) {
      EXPECT_EQ(m.at(algo).recovered_flow_fraction == 1.0, full)
          << r.label << "/" << algo << " recovers "
          << m.at(algo).recovered_flow_fraction;
    }
  }
}

// ---------------------------------------------------------------------
// Plan -> dataplane: recovered flows can actually be rerouted
// ---------------------------------------------------------------------

TEST(DataplaneIntegration, RecoveredFlowsForwardAndRerouteable) {
  const FailureState st(att(), by_nodes(att(), {13}));
  const RecoveryPlan plan = run_pm(st);

  // Build the hybrid data plane: every switch in hybrid mode with OSPF
  // legacy tables; recovered flows get explicit entries along their path.
  sdwan::Dataplane dp(att().topology(), sdwan::RoutingMode::kHybrid);
  std::set<FlowId> recovered;
  for (const auto& a : plan.sdn_assignments) recovered.insert(a.flow);
  for (FlowId l : recovered) {
    const auto& f = att().flow(l);
    for (std::size_t i = 0; i + 1 < f.path.size(); ++i) {
      dp.at(f.path[i]).install({10, {f.src, f.dst}, f.path[i + 1]});
    }
  }
  // Every flow (recovered or legacy) must still be delivered.
  int checked = 0;
  for (const auto& f : att().flows()) {
    const auto trace = dp.trace(f.src, {f.src, f.dst});
    ASSERT_TRUE(trace.delivered)
        << "flow " << f.src << "->" << f.dst << ": "
        << trace.failure_reason;
    EXPECT_EQ(trace.hops, f.path);
    ++checked;
  }
  EXPECT_EQ(checked, 600);

  // A recovered flow can be rerouted at an SDN switch: pick one
  // assignment and divert to a different viable next hop.
  ASSERT_FALSE(plan.sdn_assignments.empty());
  bool rerouted = false;
  for (const auto& [sw, flow, controller] : plan.sdn_assignments) {
    const auto& f = att().flow(flow);
    // Find an alternative next hop with a path to the destination that
    // avoids coming straight back.
    for (const auto& arc : att().topology().graph().neighbors(sw)) {
      // Skip the current next hop on the path.
      const auto it = std::find(f.path.begin(), f.path.end(), sw);
      ASSERT_NE(it, f.path.end());
      if (it + 1 != f.path.end() && arc.to == *(it + 1)) continue;
      // Route the diverted packet by legacy from there: it must reach
      // the destination (legacy tables are complete).
      dp.at(sw).install({20, {f.src, f.dst}, arc.to});
      const auto trace = dp.trace(f.src, {f.src, f.dst});
      if (trace.delivered) {
        rerouted = true;
        break;
      }
      dp.at(sw).remove({f.src, f.dst});
    }
    if (rerouted) break;
  }
  EXPECT_TRUE(rerouted) << "no recovered flow could change its path";
}

// ---------------------------------------------------------------------
// Plan -> message-level recovery
// ---------------------------------------------------------------------

TEST(SimIntegration, FullRecoveryWithinASecondOfDetection) {
  const FailureScenario failed = by_nodes(att(), {13, 20});
  const FailureState st(att(), failed);
  ctrl::ControlSimulation simulation(
      att(), [](const FailureState& state, const RecoveryPlan* previous) {
        PmOptions opts;
        opts.seed = previous;
        return run_pm(state, opts);
      });
  for (const sdwan::ControllerId j : failed.failed) {
    simulation.fail_controller_at(j, 500.0);
  }
  const ctrl::SimulationReport report = simulation.run(5000.0);
  ASSERT_TRUE(report.detected_at.has_value());
  ASSERT_TRUE(report.converged_at.has_value());
  // Heuristic computation is sub-ms and propagation is tens of ms; the
  // whole recovery must complete well within a second after detection.
  EXPECT_LT(*report.converged_at - *report.detected_at, 1000.0);
  EXPECT_EQ(report.flows_with_entries,
            evaluate_plan(st, run_pm(st)).recovered_flow_count);
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_TRUE(report.audit_clean);
}

}  // namespace
}  // namespace pm::core
