// Property sweep on randomly generated WANs: every invariant the
// algorithms promise must hold on topologies far from the calibrated ATT
// backbone — generated Waxman graphs with k-center placement, random
// failure subsets, and varying capacity headroom.
#include <gtest/gtest.h>

#include <ostream>
#include <random>

#include "core/metrics.hpp"
#include "core/optimal.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/retroflow.hpp"
#include "sdwan/failure.hpp"
#include "sim/cascade.hpp"
#include "topo/generators.hpp"
#include "topo/placement.hpp"

namespace pm {
namespace {

struct RandomCase {
  std::uint64_t seed;
  int nodes;
  int controllers;
  int failures;
  double headroom;  ///< capacity = headroom * max normal load
};

// Names each case by its fields. Without it gtest prints the struct's
// raw bytes, padding included, so the test names changed between builds.
void PrintTo(const RandomCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " nodes=" << c.nodes
      << " controllers=" << c.controllers << " failures=" << c.failures
      << " headroom=" << c.headroom;
}

/// A Waxman WAN with k-center controller placement; every controller's
/// capacity is `rc.headroom` times the largest normal load.
sdwan::Network build(const RandomCase& rc) {
  const topo::Topology topology = topo::waxman(rc.nodes, 0.5, 0.25, rc.seed);
  const auto domains = topo::k_center_domains(topology, rc.controllers);
  sdwan::NetworkConfig cfg;
  cfg.controller_capacity = 1e12;
  const sdwan::Network probe(topology, domains, cfg);
  double max_load = 0.0;
  for (int j = 0; j < probe.controller_count(); ++j) {
    max_load = std::max(max_load, probe.normal_load(j));
  }
  cfg.controller_capacity = rc.headroom * max_load;
  return sdwan::Network(topology, domains, cfg);
}

class RandomNetworks : public ::testing::TestWithParam<RandomCase> {
 protected:
  static sdwan::FailureScenario pick_failures(const RandomCase& rc,
                                              int controller_count) {
    std::mt19937_64 rng(rc.seed * 7919 + 13);
    std::vector<sdwan::ControllerId> ids(
        static_cast<std::size_t>(controller_count));
    for (int j = 0; j < controller_count; ++j) {
      ids[static_cast<std::size_t>(j)] = j;
    }
    std::shuffle(ids.begin(), ids.end(), rng);
    sdwan::FailureScenario sc;
    sc.failed.assign(ids.begin(), ids.begin() + rc.failures);
    std::sort(sc.failed.begin(), sc.failed.end());
    return sc;
  }
};

TEST_P(RandomNetworks, AllAlgorithmInvariantsHold) {
  const RandomCase rc = GetParam();
  const sdwan::Network net = build(rc);
  const sdwan::FailureState state(
      net, pick_failures(rc, net.controller_count()));

  const core::RecoveryPlan pm = core::run_pm(state);
  const core::RecoveryPlan pg = core::run_pg(state);
  const core::RecoveryPlan retro = core::run_retroflow(state);

  // 1. Every plan respects the hard FMSSM constraints.
  for (const auto* plan : {&pm, &pg, &retro}) {
    const auto violations = core::validate_plan(state, *plan);
    EXPECT_TRUE(violations.empty())
        << plan->algorithm << ": " << violations.front();
  }

  // 2. Granularity ordering: PG >= PM on both objectives; PM >= RetroFlow
  //    on the balanced minimum.
  const auto m_pm = core::evaluate_plan(state, pm);
  const auto m_pg = core::evaluate_plan(state, pg);
  const auto m_retro = core::evaluate_plan(state, retro);
  EXPECT_GE(m_pg.total_programmability, m_pm.total_programmability);
  EXPECT_GE(m_pg.least_programmability, m_pm.least_programmability);
  EXPECT_GE(m_pm.least_programmability, m_retro.least_programmability);
  EXPECT_GE(m_pm.recovered_flow_fraction,
            m_retro.recovered_flow_fraction - 1e-12);

  // 3. Determinism.
  const core::RecoveryPlan pm2 = core::run_pm(state);
  EXPECT_EQ(pm.mapping, pm2.mapping);
  EXPECT_EQ(pm.sdn_assignments, pm2.sdn_assignments);

  // 4. Metrics internal consistency.
  EXPECT_EQ(m_pm.recovered_flow_count, m_pm.programmability.count);
  EXPECT_LE(m_pm.recovered_flow_count, m_pm.recoverable_flow_count);
  EXPECT_LE(m_pm.used_control_resource,
            m_pm.available_control_resource + 1e-9);
  if (m_pm.recovered_flow_count > 0) {
    EXPECT_GE(m_pm.programmability.min, 2.0);  // beta requires p >= 2
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomNetworks,
    ::testing::Values(RandomCase{1, 20, 3, 1, 1.2},
                      RandomCase{2, 20, 3, 1, 1.05},
                      RandomCase{3, 30, 4, 2, 1.3},
                      RandomCase{4, 30, 4, 2, 1.05},
                      RandomCase{5, 30, 5, 3, 1.2},
                      RandomCase{6, 40, 5, 2, 1.1},
                      RandomCase{7, 40, 5, 3, 1.05},
                      RandomCase{8, 50, 6, 3, 1.2},
                      RandomCase{9, 25, 4, 2, 2.0},
                      RandomCase{10, 35, 4, 1, 1.5},
                      RandomCase{11, 45, 6, 4, 1.1},
                      RandomCase{12, 24, 3, 2, 1.02}));

// One small network, 12 nodes and 3 controllers, for the checks the sweep
// above does not make.
sdwan::Network small_waxman(double headroom = 1.15) {
  return build({1, 12, 3, 1, headroom});
}

TEST(SmallWaxman, TightCapacityStressesGranularity) {
  // With barely any headroom, the switch-level mapper starves while PM
  // still recovers something everywhere it can.
  const sdwan::Network net = small_waxman(1.02);
  for (int j = 0; j < net.controller_count(); ++j) {
    const sdwan::FailureState state(net, {{j}});
    const auto m_pm = core::evaluate_plan(state, core::run_pm(state));
    const auto m_retro =
        core::evaluate_plan(state, core::run_retroflow(state));
    EXPECT_GE(m_pm.total_programmability, m_retro.total_programmability)
        << "controller " << j;
  }
}

TEST(SmallWaxman, OptimalAgreesOnSmallInstance) {
  // Small enough for the exact solver to prove optimality.
  const sdwan::Network net = small_waxman();
  const sdwan::FailureState state(net, {{1}});
  const auto outcome = core::run_optimal(state);
  ASSERT_TRUE(outcome.plan.has_value());
  EXPECT_TRUE(outcome.plan->proven_optimal);
  EXPECT_TRUE(core::validate_plan(state, *outcome.plan).empty());
  const auto m_opt = core::evaluate_plan(state, *outcome.plan);
  const auto m_pm = core::evaluate_plan(state, core::run_pm(state));
  // Optimal dominates PM on the model objective (r first).
  EXPECT_GE(m_opt.least_programmability, m_pm.least_programmability);
}

TEST(SmallWaxman, PmNeverCascades) {
  const sdwan::Network net = small_waxman();
  const sim::RecoveryPolicy pm = [](const sdwan::FailureState& st) {
    return core::run_pm(st);
  };
  for (int j = 0; j < net.controller_count(); ++j) {
    const auto r = sim::simulate_cascade(net, {j}, pm);
    EXPECT_EQ(r.induced_failures(), 0u) << "controller " << j;
  }
}

}  // namespace
}  // namespace pm
