#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/fmssm.hpp"
#include "core/metrics.hpp"
#include "core/optimal.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/recovery_plan.hpp"
#include "core/retroflow.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "topo/generators.hpp"

namespace pm::core {
namespace {

using sdwan::ControllerId;
using sdwan::FailureScenario;
using sdwan::FailureState;
using sdwan::FlowId;
using sdwan::Network;
using sdwan::SwitchId;

/// Small ring+chords network with 3 controllers for exhaustive checks.
Network small_network(double capacity, std::uint64_t seed = 3,
                      int nodes = 9) {
  sdwan::NetworkConfig cfg;
  cfg.controller_capacity = capacity;
  std::map<SwitchId, std::vector<SwitchId>> domains;
  const int per = nodes / 3;
  domains[0] = {};
  domains[per] = {};
  domains[2 * per] = {};
  for (int s = 0; s < nodes; ++s) {
    if (s < per) domains[0].push_back(s);
    else if (s < 2 * per) domains[per].push_back(s);
    else domains[2 * per].push_back(s);
  }
  return Network(topo::ring_with_chords(nodes, 4, seed), domains, cfg);
}

/// Exhaustive FMSSM optimum on a tiny instance by enumerating every
/// switch->controller mapping and greedily... no — fully enumerating SDN
/// subsets too, which is only viable for very small instances. Used to
/// certify both the MILP formulation and the aggregated linearization.
struct BruteResult {
  double objective = -1.0;
  std::int64_t best_r = 0;
};

BruteResult brute_force_fmssm(const FailureState& state, double lambda,
                              bool delay_constraint) {
  const Network& net = state.network();
  const auto& switches = state.offline_switches();
  const auto& controllers = state.active_controllers();
  const int n = static_cast<int>(switches.size());
  const int m = static_cast<int>(controllers.size());

  // Collect (switch, flow, p) opportunity triples.
  struct Opp {
    SwitchId sw;
    FlowId flow;
    std::int64_t p;
  };
  std::vector<Opp> opps;
  for (FlowId l : state.recoverable_flows()) {
    for (const auto& o : state.opportunities(l)) {
      opps.push_back({o.sw, l, o.p});
    }
  }
  const int k = static_cast<int>(opps.size());
  EXPECT_LE(k, 22) << "instance too large for brute force";

  BruteResult best;
  // Enumerate mappings: each switch unmapped (m) or mapped to one of m
  // controllers -> (m+1)^n combinations.
  std::vector<int> assign(static_cast<std::size_t>(n), 0);
  while (true) {
    // Enumerate SDN subsets of opportunities.
    for (int mask = 0; mask < (1 << k); ++mask) {
      // Check consistency + capacity + delay.
      std::map<ControllerId, double> load;
      double delay = 0.0;
      std::map<FlowId, std::int64_t> h;
      bool ok = true;
      for (int t = 0; t < k && ok; ++t) {
        if (!((mask >> t) & 1)) continue;
        const auto& o = opps[static_cast<std::size_t>(t)];
        const int si = static_cast<int>(
            std::find(switches.begin(), switches.end(), o.sw) -
            switches.begin());
        const int a = assign[static_cast<std::size_t>(si)];
        if (a == 0) {
          ok = false;  // switch unmapped
          break;
        }
        const ControllerId j = controllers[static_cast<std::size_t>(a - 1)];
        load[j] += 1.0;
        if (load[j] > state.rest_capacity(j)) ok = false;
        delay += net.delay_ms(o.sw, j);
        h[o.flow] += o.p;
      }
      if (!ok) continue;
      if (delay_constraint && delay > state.ideal_total_delay() + 1e-9) {
        continue;
      }
      std::int64_t r = std::numeric_limits<std::int64_t>::max();
      std::int64_t total = 0;
      for (FlowId l : state.recoverable_flows()) {
        const auto it = h.find(l);
        const std::int64_t hl = it == h.end() ? 0 : it->second;
        r = std::min(r, hl);
        total += hl;
      }
      if (state.recoverable_flows().empty()) r = 0;
      const double obj = static_cast<double>(r) +
                         lambda * static_cast<double>(total);
      if (obj > best.objective) {
        best.objective = obj;
        best.best_r = r;
      }
    }
    // Next mapping.
    int pos = 0;
    while (pos < n && assign[static_cast<std::size_t>(pos)] == m) {
      assign[static_cast<std::size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == n) break;
    ++assign[static_cast<std::size_t>(pos)];
  }
  return best;
}

// ---------------------------------------------------------------------
// Recovery plan helpers
// ---------------------------------------------------------------------

TEST(RecoveryPlan, ValidationCatchesEveryViolationKind) {
  const Network net = small_network(100.0);
  const FailureState state(net, {{0}});
  const auto& offline = state.offline_switches();
  ASSERT_FALSE(offline.empty());
  const SwitchId some_offline = offline.front();
  const ControllerId active = state.active_controllers().front();
  const ControllerId failed = 0;

  {  // mapped but not offline
    RecoveryPlan p;
    SwitchId online = 0;
    for (int s = 0; s < net.switch_count(); ++s) {
      if (!state.is_offline_switch(s)) {
        online = s;
        break;
      }
    }
    p.mapping[online] = active;
    EXPECT_FALSE(validate_plan(state, p).empty());
  }
  {  // mapped to failed controller
    RecoveryPlan p;
    p.mapping[some_offline] = failed;
    EXPECT_FALSE(validate_plan(state, p).empty());
  }
  {  // assignment at unmapped switch
    RecoveryPlan p;
    FlowId l = state.recoverable_flows().front();
    p.sdn_assignments.push_back({state.opportunities(l).front().sw, l});
    EXPECT_FALSE(validate_plan(state, p).empty());
  }
  {  // assignment where beta = 0 (flow's own destination)
    RecoveryPlan p;
    FlowId l = state.recoverable_flows().front();
    const auto& f = net.flow(l);
    SwitchId dst_offline = -1;
    for (FlowId l2 : state.recoverable_flows()) {
      if (state.is_offline_switch(net.flow(l2).dst)) {
        dst_offline = net.flow(l2).dst;
        l = l2;
        break;
      }
    }
    (void)f;
    if (dst_offline >= 0) {
      p.mapping[dst_offline] = active;
      p.sdn_assignments.push_back({dst_offline, l});
      EXPECT_FALSE(validate_plan(state, p).empty());
    }
  }
  {  // overload
    const Network tight = small_network(1.0);
    const FailureState tight_state(tight, {{0}});
    RecoveryPlan p;
    int added = 0;
    for (FlowId l : tight_state.recoverable_flows()) {
      for (const auto& o : tight_state.opportunities(l)) {
        p.mapping[o.sw] = tight_state.active_controllers().front();
        p.sdn_assignments.push_back({o.sw, l});
        if (++added >= 5) break;
      }
      if (added >= 5) break;
    }
    sort_assignments(p);
    EXPECT_FALSE(validate_plan(tight_state, p).empty());
  }
}

TEST(RecoveryPlan, FlowProgrammabilitySumsDiversity) {
  const Network net = small_network(100.0);
  const FailureState state(net, {{0}});
  const FlowId l = state.recoverable_flows().front();
  const auto& opps = state.opportunities(l);
  RecoveryPlan p;
  std::int64_t expected = 0;
  for (const auto& o : opps) {
    p.mapping[o.sw] = state.active_controllers().front();
    p.sdn_assignments.push_back({o.sw, l});
    expected += o.p;
  }
  sort_assignments(p);
  const auto h = flow_programmability(state, p);
  EXPECT_EQ(h.at(l), expected);
}

TEST(RecoveryPlan, PruneRemovesIdleMappings) {
  RecoveryPlan p;
  p.mapping[3] = 1;
  p.mapping[4] = 1;
  p.sdn_assignments.push_back({3, 7});
  prune_unused_mappings(p);
  EXPECT_TRUE(p.mapping.contains(3));
  EXPECT_FALSE(p.mapping.contains(4));
}

TEST(RecoveryPlan, ControllerOfAssignmentPrefersOverride) {
  RecoveryPlan p;
  p.mapping[3] = 1;
  p.sdn_assignments = {{3, 7}, {3, 8}};
  p.assignment_controller = {2, -1};  // -1: (3, 8) defers to the mapping
  EXPECT_EQ(p.controller_of_assignment(3, 7), 2);
  EXPECT_EQ(p.controller_of_assignment(std::size_t{0}), 2);
  EXPECT_EQ(p.controller_of_assignment(std::size_t{1}), 1);
  EXPECT_EQ(p.controller_of_assignment(3, 8), 1);
  EXPECT_EQ(p.controller_of_assignment(5, 7), -1);
}

TEST(RecoveryPlan, ValidateReportsUnsortedOrDuplicatedAssignments) {
  const Network net = small_network(100.0);
  const FailureState state(net, {{0}});
  RecoveryPlan p = run_pm(state);
  ASSERT_GE(p.sdn_assignments.size(), 2u);
  ASSERT_TRUE(validate_plan(state, p).empty());
  const auto mentions_order = [&](const RecoveryPlan& plan) {
    const auto problems = validate_plan(state, plan);
    return std::any_of(problems.begin(), problems.end(), [](const auto& m) {
      return m.find("sorted") != std::string::npos;
    });
  };
  RecoveryPlan swapped = p;
  std::swap(swapped.sdn_assignments.front(), swapped.sdn_assignments.back());
  EXPECT_TRUE(mentions_order(swapped));
  RecoveryPlan duplicated = p;
  duplicated.sdn_assignments.insert(duplicated.sdn_assignments.begin(),
                                    duplicated.sdn_assignments.front());
  EXPECT_TRUE(mentions_order(duplicated));
  sort_assignments(duplicated);
  EXPECT_EQ(duplicated.sdn_assignments, p.sdn_assignments);
}

TEST(RecoveryPlan, ValidateReportsMisalignedControllerVector) {
  const Network net = small_network(100.0);
  const FailureState state(net, {{0}});
  RecoveryPlan p = run_pg(state);
  ASSERT_EQ(p.assignment_controller.size(), p.sdn_assignments.size());
  ASSERT_TRUE(validate_plan(state, p).empty());
  p.assignment_controller.pop_back();
  const auto problems = validate_plan(state, p);
  EXPECT_TRUE(std::any_of(problems.begin(), problems.end(), [](const auto& m) {
    return m.find("assignment_controller has") != std::string::npos;
  }));
}

TEST(RecoveryPlan, PgPlanAnswersThePerPairController) {
  // ATT (13, 20): C13 and C20 are controllers 3 and 4. PG slices
  // switches across controllers, so some pair's controller differs from
  // its switch's majority mapping.
  const Network net = make_att_network();
  const FailureState state(net, {{3, 4}});
  const RecoveryPlan plan = run_pg(state);
  ASSERT_EQ(plan.assignment_controller.size(), plan.sdn_assignments.size());
  std::size_t sliced = 0;
  for (std::size_t k = 0; k < plan.sdn_assignments.size(); ++k) {
    const auto [sw, flow] = plan.sdn_assignments[k];
    const ControllerId j = plan.assignment_controller[k];
    EXPECT_EQ(plan.controller_of_assignment(sw, flow), j);
    EXPECT_EQ(plan.controller_of_assignment(k), j);
    if (j != plan.controller_of(sw)) ++sliced;
  }
  EXPECT_GT(sliced, 0u);
}

// ---------------------------------------------------------------------
// PM (Algorithm 1)
// ---------------------------------------------------------------------

struct PmCase {
  double capacity;
  int failed;
};

class PmProperty : public ::testing::TestWithParam<PmCase> {};

TEST_P(PmProperty, ProducesValidBalancedPlans) {
  const Network net = small_network(GetParam().capacity);
  const FailureState state(net, {{GetParam().failed}});
  const RecoveryPlan plan = run_pm(state);
  EXPECT_EQ(plan.algorithm, "PM");
  EXPECT_TRUE(validate_plan(state, plan).empty());

  // Every mapped switch is used; every assignment sits at a mapped switch.
  std::set<SwitchId> used;
  for (const auto& [sw, flow] : plan.sdn_assignments) {
    (void)flow;
    used.insert(sw);
    EXPECT_TRUE(plan.mapping.contains(sw));
  }
  EXPECT_EQ(used.size(), plan.mapping.size());
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, PmProperty,
    ::testing::Values(PmCase{100.0, 0}, PmCase{100.0, 1}, PmCase{100.0, 2},
                      PmCase{60.0, 0}, PmCase{60.0, 1}, PmCase{60.0, 2},
                      PmCase{40.0, 0}, PmCase{40.0, 2}, PmCase{20.0, 1},
                      PmCase{10.0, 0}, PmCase{5.0, 2}, PmCase{1.0, 0}));

TEST(Pm, Deterministic) {
  const Network net = small_network(50.0);
  const FailureState state(net, {{1}});
  const RecoveryPlan a = run_pm(state);
  const RecoveryPlan b = run_pm(state);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.sdn_assignments, b.sdn_assignments);
}

TEST(Pm, AmpleCapacityRecoversEverythingRecoverable) {
  const Network net = small_network(10000.0);
  const FailureState state(net, {{0}});
  const RecoveryPlan plan = run_pm(state);
  const auto m = evaluate_plan(state, plan);
  EXPECT_DOUBLE_EQ(m.recovered_flow_fraction, 1.0);
  // With unlimited capacity, every opportunity at a MAPPED switch is
  // taken (the utilization pass of Algorithm 1 lines 42-50 only touches
  // switches the balancing stage mapped — faithful to the paper).
  for (FlowId l : state.recoverable_flows()) {
    for (const auto& opp : state.opportunities(l)) {
      if (plan.mapping.contains(opp.sw)) {
        EXPECT_TRUE(plan.has_assignment(opp.sw, l))
            << "unused opportunity at mapped switch " << opp.sw;
      }
    }
  }
}

TEST(Pm, ZeroCapacityRecoversNothing) {
  const Network net = small_network(0.5);
  // Normal load >> 0.5, so every rest capacity clamps to 0.
  const FailureState state(net, {{0}});
  const RecoveryPlan plan = run_pm(state);
  EXPECT_TRUE(plan.sdn_assignments.empty());
  EXPECT_TRUE(validate_plan(state, plan).empty());
}

TEST(Pm, MonotoneInCapacity) {
  // More controller capacity never hurts total programmability.
  std::int64_t prev_total = -1;
  for (double cap : {20.0, 40.0, 80.0, 160.0, 10000.0}) {
    const Network net = small_network(cap);
    const FailureState state(net, {{1}});
    const auto m = evaluate_plan(state, run_pm(state));
    EXPECT_GE(m.total_programmability, prev_total) << "cap=" << cap;
    prev_total = m.total_programmability;
  }
}

TEST(Pm, UtilizationPassOnlyAddsTotal) {
  const Network net = small_network(60.0);
  const FailureState state(net, {{2}});
  PmOptions with, without;
  without.skip_utilization_pass = true;
  const auto m_with = evaluate_plan(state, run_pm(state, with));
  const auto m_without = evaluate_plan(state, run_pm(state, without));
  EXPECT_GE(m_with.total_programmability, m_without.total_programmability);
  EXPECT_EQ(m_with.least_programmability, m_without.least_programmability);
}

TEST(Pm, BalancesBeforeMaximizing) {
  // PM's least programmability must be >= RetroFlow's in every scenario
  // (flow-level granularity can only help the minimum).
  for (int failed = 0; failed < 3; ++failed) {
    const Network net = small_network(40.0);
    const FailureState state(net, {{failed}});
    const auto pm = evaluate_plan(state, run_pm(state));
    const auto retro = evaluate_plan(state, run_retroflow(state));
    EXPECT_GE(pm.least_programmability, retro.least_programmability);
  }
}

// ---------------------------------------------------------------------
// RetroFlow
// ---------------------------------------------------------------------

TEST(RetroFlow, ValidWholeSwitchPlans) {
  const Network net = small_network(60.0);
  const FailureState state(net, {{0}});
  const RecoveryPlan plan = run_retroflow(state);
  EXPECT_EQ(plan.algorithm, "RetroFlow");
  EXPECT_TRUE(plan.whole_switch_control);
  EXPECT_TRUE(validate_plan(state, plan).empty());
  // Whole-switch semantics: a mapped switch carries ALL its beta flows.
  for (const auto& [sw, ctrl] : plan.mapping) {
    (void)ctrl;
    for (FlowId l : state.recoverable_flows()) {
      const auto& opps = state.opportunities(l);
      const bool has = std::any_of(opps.begin(), opps.end(),
                                   [&](const auto& o) { return o.sw == sw; });
      EXPECT_EQ(plan.has_assignment(sw, l), has);
    }
  }
}

TEST(RetroFlow, SkipsSwitchesThatCannotFit) {
  const Network net = small_network(30.0);
  const FailureState state(net, {{0}});
  const RecoveryPlan plan = run_retroflow(state);
  for (const auto& [sw, ctrl] : plan.mapping) {
    EXPECT_LE(state.gamma(sw), state.rest_capacity(ctrl) + 1e-9)
        << "mapped switch exceeds the capacity it was given";
    // The chosen controller is among the 2 nearest (default policy).
    const auto by_delay = state.controllers_by_delay(sw);
    const bool near = ctrl == by_delay[0] ||
                      (by_delay.size() > 1 && ctrl == by_delay[1]);
    EXPECT_TRUE(near) << "switch " << sw << " mapped beyond its two "
                      << "nearest controllers";
  }
}

TEST(RetroFlow, MoreCandidatesRecoverMore) {
  const auto net = make_att_network();
  sdwan::FailureScenario sc;
  for (int j = 0; j < net.controller_count(); ++j) {
    const int loc = net.controller(j).location;
    if (loc == 13 || loc == 20) sc.failed.push_back(j);
  }
  const FailureState state(net, sc);
  const auto narrow =
      evaluate_plan(state, run_retroflow(state, {.controller_candidates = 1}));
  const auto wide =
      evaluate_plan(state, run_retroflow(state, {.controller_candidates = 4}));
  EXPECT_GE(wide.total_programmability, narrow.total_programmability);
  EXPECT_GE(wide.recovered_switch_count, narrow.recovered_switch_count);
}

// ---------------------------------------------------------------------
// PG
// ---------------------------------------------------------------------

TEST(Pg, ValidPlansWithMiddleLayerCost) {
  const Network net = small_network(60.0);
  const FailureState state(net, {{1}});
  const RecoveryPlan plan = run_pg(state);
  EXPECT_EQ(plan.algorithm, "PG");
  EXPECT_GT(plan.middle_layer_ms, 0.0);
  EXPECT_TRUE(validate_plan(state, plan).empty());
}

TEST(Pg, FlowLevelFreedomBeatsOrMatchesPm) {
  // PG solves a relaxation of PM's problem, so with the same greedy it
  // recovers at least as much total programmability.
  for (int failed = 0; failed < 3; ++failed) {
    for (double cap : {30.0, 60.0, 120.0}) {
      const Network net = small_network(cap);
      const FailureState state(net, {{failed}});
      const auto pg = evaluate_plan(state, run_pg(state));
      const auto pm = evaluate_plan(state, run_pm(state));
      EXPECT_GE(pg.total_programmability, pm.total_programmability)
          << "failed=" << failed << " cap=" << cap;
      EXPECT_GE(pg.least_programmability, pm.least_programmability)
          << "failed=" << failed << " cap=" << cap;
    }
  }
}

TEST(Pg, OverheadExceedsPmDueToLayer) {
  const auto net = make_att_network();
  const FailureState state(net, {{3}});
  const auto pg = evaluate_plan(state, run_pg(state));
  const auto pm = evaluate_plan(state, run_pm(state));
  EXPECT_GT(pg.per_flow_overhead_ms, pm.per_flow_overhead_ms);
}

// ---------------------------------------------------------------------
// FMSSM model + Optimal
// ---------------------------------------------------------------------

TEST(Fmssm, ModelShape) {
  const Network net = small_network(50.0);
  const FailureState state(net, {{0}});
  const FmssmProblem p = build_fmssm(state);
  const int N = static_cast<int>(state.offline_switches().size());
  const int M = static_cast<int>(state.active_controllers().size());
  int B = 0;
  for (FlowId l : state.recoverable_flows()) {
    B += static_cast<int>(state.opportunities(l).size());
  }
  EXPECT_EQ(p.model.variable_count(), 1 + N * M + B * M);
  EXPECT_GT(p.lambda, 0.0);
  EXPECT_LT(p.lambda, 1.0);
  // r maximization dominates: lambda * (max total) < 1.
  double total_max = 0;
  for (FlowId l : state.recoverable_flows()) {
    for (const auto& o : state.opportunities(l)) total_max += o.p;
  }
  EXPECT_LT(p.lambda * total_max, 1.0);
}

TEST(Fmssm, EncodeDecodeRoundTrip) {
  const Network net = small_network(50.0);
  const FailureState state(net, {{0}});
  const FmssmProblem p = build_fmssm(state);
  const RecoveryPlan pm_plan = run_pm(state);
  const auto x = p.encode(state, pm_plan);
  const RecoveryPlan decoded = p.decode(x);
  EXPECT_EQ(decoded.sdn_assignments, pm_plan.sdn_assignments);
  EXPECT_EQ(decoded.mapping, pm_plan.mapping);
}

TEST(Fmssm, OptimalMatchesBruteForceOnTinyInstances) {
  // 6-node ring (opposite pairs have two equal-length shortest paths, so
  // the DAG diversity is nontrivial), 2 domains, tight capacity: small
  // enough to enumerate every mapping and every SDN subset.
  sdwan::NetworkConfig cfg;
  cfg.controller_capacity = 14.0;
  std::map<SwitchId, std::vector<SwitchId>> domains{{0, {0, 1}},
                                                    {2, {2, 3, 4, 5}}};
  const Network net(topo::ring_with_chords(6, 0, 11), domains, cfg);
  const FailureState state(net, {{0}});
  ASSERT_FALSE(state.recoverable_flows().empty());

  const FmssmProblem p = build_fmssm(state);
  milp::MipOptions opts;
  opts.time_limit_seconds = 30.0;
  const auto result = milp::solve_mip(p.model, opts);
  ASSERT_EQ(result.status, milp::MipStatus::kOptimal);

  const BruteResult brute =
      brute_force_fmssm(state, p.lambda, /*delay_constraint=*/true);
  EXPECT_NEAR(result.objective, brute.objective, 1e-6)
      << "aggregated linearization must preserve the integer optimum";
}

TEST(Fmssm, DelayConstraintOnlyRestricts) {
  sdwan::NetworkConfig cfg;
  cfg.controller_capacity = 14.0;
  std::map<SwitchId, std::vector<SwitchId>> domains{{0, {0, 1}},
                                                    {2, {2, 3, 4, 5}}};
  const Network net(topo::ring_with_chords(6, 0, 12), domains, cfg);
  const FailureState state(net, {{1}});
  ASSERT_FALSE(state.recoverable_flows().empty());
  const FmssmProblem with = build_fmssm(state, {.delay_constraint = true});
  const FmssmProblem without =
      build_fmssm(state, {.delay_constraint = false});
  milp::MipOptions opts;
  opts.time_limit_seconds = 30.0;
  const auto rw = milp::solve_mip(with.model, opts);
  const auto ro = milp::solve_mip(without.model, opts);
  ASSERT_TRUE(rw.has_solution());
  ASSERT_TRUE(ro.has_solution());
  EXPECT_LE(rw.objective, ro.objective + 1e-9);
}

TEST(Optimal, AtLeastAsGoodAsItsWarmStart) {
  const Network net = small_network(40.0);
  const FailureState state(net, {{2}});
  OptimalOptions opts;
  opts.time_limit_seconds = 20.0;
  const OptimalOutcome outcome = run_optimal(state, opts);
  ASSERT_TRUE(outcome.plan.has_value());
  EXPECT_TRUE(validate_plan(state, *outcome.plan).empty());

  const auto opt_metrics = evaluate_plan(state, *outcome.plan);
  // Optimal's objective value must dominate any delay-feasible plan; PM
  // ignores the delay budget, so compare against the solver's own warm
  // start implicitly: the outcome must at least recover a valid plan with
  // nonnegative objective, and when proven optimal its model objective
  // beats PM's whenever PM is delay-feasible.
  const RecoveryPlan pm_plan = run_pm(state);
  const FmssmProblem problem = build_fmssm(state, opts.fmssm);
  const auto pm_encoded = problem.encode(state, pm_plan);
  if (problem.model.is_feasible(pm_encoded) && outcome.plan->proven_optimal) {
    const auto opt_encoded = problem.encode(state, *outcome.plan);
    EXPECT_GE(problem.model.objective_value(opt_encoded),
              problem.model.objective_value(pm_encoded) - 1e-6);
  }
  EXPECT_GE(opt_metrics.total_programmability, 0);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(Metrics, HandBuiltPlan) {
  const Network net = small_network(100.0);
  const FailureState state(net, {{0}});
  const FlowId l = state.recoverable_flows().front();
  const auto& opp = state.opportunities(l).front();
  RecoveryPlan plan;
  plan.algorithm = "manual";
  const ControllerId j = state.active_controllers().front();
  plan.mapping[opp.sw] = j;
  plan.sdn_assignments.push_back({opp.sw, l});

  const RecoveryMetrics m = evaluate_plan(state, plan);
  EXPECT_EQ(m.recovered_flow_count, 1u);
  EXPECT_EQ(m.total_programmability, opp.p);
  EXPECT_EQ(m.least_programmability, 0);  // other flows unrecovered
  EXPECT_EQ(m.recovered_switch_count, 1u);
  EXPECT_DOUBLE_EQ(m.used_control_resource, 1.0);
  EXPECT_DOUBLE_EQ(m.controller_load.at(j), 1.0);
  EXPECT_NEAR(m.total_overhead_ms, net.delay_ms(opp.sw, j), 1e-12);
  EXPECT_NEAR(m.per_flow_overhead_ms, net.delay_ms(opp.sw, j), 1e-12);
  EXPECT_DOUBLE_EQ(m.programmability.min, static_cast<double>(opp.p));
  EXPECT_DOUBLE_EQ(m.programmability.max, static_cast<double>(opp.p));
}

TEST(Metrics, EmptyPlan) {
  const Network net = small_network(100.0);
  const FailureState state(net, {{0}});
  RecoveryPlan plan;
  plan.algorithm = "empty";
  const RecoveryMetrics m = evaluate_plan(state, plan);
  EXPECT_EQ(m.recovered_flow_count, 0u);
  EXPECT_EQ(m.total_programmability, 0);
  EXPECT_EQ(m.least_programmability, 0);
  EXPECT_DOUBLE_EQ(m.recovered_flow_fraction, 0.0);
  EXPECT_DOUBLE_EQ(m.per_flow_overhead_ms, 0.0);
}

TEST(Metrics, WholeSwitchLoadUsesGamma) {
  const Network net = small_network(200.0);
  const FailureState state(net, {{0}});
  const RecoveryPlan plan = run_retroflow(state);
  const RecoveryMetrics m = evaluate_plan(state, plan);
  double expected = 0.0;
  for (const auto& [sw, ctrl] : plan.mapping) {
    (void)ctrl;
    expected += state.gamma(sw);
  }
  EXPECT_DOUBLE_EQ(m.used_control_resource, expected);
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

TEST(Runner, SweepCoversAllScenarios) {
  const Network net = small_network(60.0);
  RunnerOptions opts;
  opts.run_optimal = false;
  const auto results = run_failure_sweep(net, 1, opts);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_EQ(r.metrics.size(), 3u);  // PM, RetroFlow, PG
    for (const auto& [name, violations] : r.violations) {
      EXPECT_TRUE(violations.empty()) << name << " in " << r.label;
    }
    EXPECT_GT(r.pm_seconds, 0.0);
  }
}

TEST(Runner, OptimalIncludedWhenRequested) {
  const Network net = small_network(60.0, 3, 9);
  RunnerOptions opts;
  opts.run_optimal = true;
  opts.optimal.time_limit_seconds = 20.0;
  const auto r = run_case(net, {{0}}, opts);
  EXPECT_TRUE(r.optimal_available);
  EXPECT_TRUE(r.metrics.contains("Optimal"));
  EXPECT_GT(r.optimal_seconds, 0.0);
  EXPECT_TRUE(r.violations.at("Optimal").empty());
}

}  // namespace
}  // namespace pm::core
