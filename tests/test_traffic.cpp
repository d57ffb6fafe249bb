#include <gtest/gtest.h>

#include <algorithm>

#include "core/pm_algorithm.hpp"
#include "core/reroute.hpp"
#include "core/retroflow.hpp"
#include "core/scenario.hpp"
#include "sdwan/traffic.hpp"

namespace pm {
namespace {

using sdwan::FlowId;
using sdwan::SwitchId;

const sdwan::Network& att() {
  static const sdwan::Network net = core::make_att_network();
  return net;
}

// ---------------------------------------------------------------------
// Traffic matrices
// ---------------------------------------------------------------------

TEST(Traffic, UniformMatrix) {
  const auto tm = sdwan::uniform_traffic(att(), 2.5);
  EXPECT_EQ(tm.rate.size(), 600u);
  EXPECT_DOUBLE_EQ(tm.of(0), 2.5);
  EXPECT_NEAR(tm.total(), 600 * 2.5, 1e-9);
}

TEST(Traffic, GravityMatrixScalesToTotal) {
  const auto tm = sdwan::gravity_traffic(att(), 120000.0);
  EXPECT_NEAR(tm.total(), 120000.0, 1e-6);
  // Every flow gets positive rate; hub-attached pairs get more.
  double min_rate = 1e18;
  double max_rate = 0.0;
  for (double r : tm.rate) {
    min_rate = std::min(min_rate, r);
    max_rate = std::max(max_rate, r);
  }
  EXPECT_GT(min_rate, 0.0);
  EXPECT_GT(max_rate, 4.0 * min_rate);  // degree heterogeneity shows up
}

TEST(Traffic, SourceSurgeOnlyHitsThatSource) {
  auto tm = sdwan::uniform_traffic(att(), 1.0);
  sdwan::apply_source_surge(tm, att(), 13, 5.0);
  for (const auto& f : att().flows()) {
    EXPECT_DOUBLE_EQ(tm.of(f.id), f.src == 13 ? 5.0 : 1.0);
  }
}

TEST(Traffic, DispersedSurge) {
  auto tm = sdwan::uniform_traffic(att(), 1.0);
  sdwan::apply_dispersed_surge(tm, 0.25, 3.0);
  int surged = 0;
  for (double r : tm.rate) {
    if (r == 3.0) ++surged;
  }
  EXPECT_EQ(surged, 150);  // every 4th of 600
}

// ---------------------------------------------------------------------
// Link loads
// ---------------------------------------------------------------------

TEST(Traffic, LinkLoadConservation) {
  const auto tm = sdwan::uniform_traffic(att(), 1.0);
  const auto loads = sdwan::compute_link_loads(att(), tm, 1000.0);
  // Total link load == sum over flows of rate * path edge count.
  double expected = 0.0;
  for (const auto& f : att().flows()) {
    expected += static_cast<double>(f.path.size() - 1);
  }
  double actual = 0.0;
  for (const auto& [link, l] : loads.load_mbps) {
    (void)link;
    actual += l;
  }
  EXPECT_NEAR(actual, expected, 1e-9);
  EXPECT_GT(loads.max_utilization, 0.0);
}

TEST(Traffic, PathOverrideMovesLoad) {
  const auto tm = sdwan::uniform_traffic(att(), 10.0);
  const auto base = sdwan::compute_link_loads(att(), tm, 1000.0);
  // Move flow 0 onto some other simple path and check the busiest of its
  // default links sheds exactly 10 Mbps.
  const auto& f = att().flows()[0];
  ASSERT_GE(f.path.size(), 2u);
  const auto first_link = sdwan::make_link(f.path[0], f.path[1]);
  // Any reroute candidate from the source.
  const auto candidates = core::candidate_paths(att(), f.id, f.path[0]);
  ASSERT_FALSE(candidates.empty());
  std::map<FlowId, std::vector<SwitchId>> overrides{
      {f.id, candidates.front()}};
  const auto moved = sdwan::compute_link_loads(att(), tm, 1000.0, overrides);
  EXPECT_NEAR(moved.load_mbps.at(first_link),
              base.load_mbps.at(first_link) - 10.0, 1e-9);
}

TEST(Traffic, RejectsNonPositiveCapacity) {
  const auto tm = sdwan::uniform_traffic(att(), 1.0);
  EXPECT_THROW(sdwan::compute_link_loads(att(), tm, 0.0),
               std::invalid_argument);
}

TEST(Traffic, CongestedLinkCount) {
  auto tm = sdwan::uniform_traffic(att(), 0.0);
  // Push one heavy flow over its path only.
  tm.rate[0] = 500.0;
  const auto loads = sdwan::compute_link_loads(att(), tm, 100.0);
  const auto& f = att().flows()[0];
  EXPECT_EQ(loads.congested_links,
            static_cast<int>(f.path.size()) - 1);
  EXPECT_DOUBLE_EQ(loads.max_utilization, 5.0);
}

// ---------------------------------------------------------------------
// Reroute candidates and programmability gating
// ---------------------------------------------------------------------

TEST(Reroute, CandidatesAreLoopFreeAndReachDestination) {
  for (const FlowId l : {0, 57, 123, 400}) {
    const auto& f = att().flow(l);
    for (SwitchId at : f.path) {
      if (at == f.dst) continue;
      for (const auto& path : core::candidate_paths(att(), l, at)) {
        EXPECT_EQ(path.front(), f.src);
        EXPECT_EQ(path.back(), f.dst);
        auto sorted = path;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                  sorted.end())
            << "loop in candidate path";
        EXPECT_NE(path, f.path);
        // Edges must exist.
        for (std::size_t i = 1; i < path.size(); ++i) {
          EXPECT_TRUE(
              att().topology().graph().has_edge(path[i - 1], path[i]));
        }
      }
    }
  }
}

TEST(Reroute, OfflineFlowsGatedByPlan) {
  const sdwan::FailureState state(att(), {{3}});  // controller of node 13
  core::RecoveryPlan empty;
  empty.algorithm = "empty";
  // Pick an offline flow whose path is entirely inside the failed domain
  // region... simpler: any recoverable flow: at its offline switches it
  // must NOT be reroutable under an empty plan.
  const FlowId l = state.recoverable_flows().front();
  const auto points = core::reroutable_switches(state, empty, l);
  for (SwitchId s : points) {
    EXPECT_FALSE(state.is_offline_switch(s));
  }
  // Under PM's plan, assigned offline switches become reroutable.
  const core::RecoveryPlan pm = core::run_pm(state);
  bool any_offline_point = false;
  for (FlowId fl : state.recoverable_flows()) {
    for (SwitchId s : core::reroutable_switches(state, pm, fl)) {
      if (state.is_offline_switch(s)) {
        any_offline_point = true;
        EXPECT_TRUE(pm.has_assignment(s, fl));
      }
    }
  }
  EXPECT_TRUE(any_offline_point);
}

// ---------------------------------------------------------------------
// Congestion minimization
// ---------------------------------------------------------------------

class RerouteMlu : public ::testing::Test {
 protected:
  RerouteMlu() : state_(att(), {{3, 4}}) {
    tm_ = sdwan::gravity_traffic(att(), 200000.0);
    sdwan::apply_source_surge(tm_, att(), 17, 6.0);
    options_.link_capacity_mbps = 10000.0;
  }
  sdwan::FailureState state_;
  sdwan::TrafficMatrix tm_;
  core::RerouteOptions options_;
};

TEST_F(RerouteMlu, NeverIncreasesMlu) {
  const core::RecoveryPlan pm = core::run_pm(state_);
  const auto rr = core::minimize_congestion(state_, pm, tm_, options_);
  EXPECT_LE(rr.final_mlu, rr.initial_mlu + 1e-12);
  EXPECT_EQ(rr.moves, static_cast<int>(rr.new_paths.size()));
}

TEST_F(RerouteMlu, ReroutingActuallyHelps) {
  const core::RecoveryPlan pm = core::run_pm(state_);
  const auto rr = core::minimize_congestion(state_, pm, tm_, options_);
  EXPECT_LT(rr.final_mlu, rr.initial_mlu)
      << "the surge must be escapable with PM's programmability";
}

TEST_F(RerouteMlu, ResultConsistentWithLinkLoads) {
  const core::RecoveryPlan pm = core::run_pm(state_);
  const auto rr = core::minimize_congestion(state_, pm, tm_, options_);
  std::map<FlowId, std::vector<SwitchId>> overrides(rr.new_paths.begin(),
                                                    rr.new_paths.end());
  const auto loads = sdwan::compute_link_loads(
      att(), tm_, options_.link_capacity_mbps, overrides);
  EXPECT_NEAR(loads.max_utilization, rr.final_mlu, 1e-9);
}

TEST_F(RerouteMlu, PmReroutePointsSupersetOfRetroFlow) {
  // The greedy MLU outcome is not monotone in the option set, but the
  // option set itself is: in this scenario PM takes every opportunity
  // (ample capacity), so every flow's RetroFlow reroute points are
  // contained in PM's.
  const core::RecoveryPlan retro = core::run_retroflow(state_);
  const core::RecoveryPlan pm = core::run_pm(state_);
  for (sdwan::FlowId l : state_.recoverable_flows()) {
    const auto pts_retro = core::reroutable_switches(state_, retro, l);
    const auto pts_pm = core::reroutable_switches(state_, pm, l);
    for (SwitchId s : pts_retro) {
      EXPECT_NE(std::find(pts_pm.begin(), pts_pm.end(), s), pts_pm.end())
          << "flow " << l << " switch " << s;
    }
  }
}

TEST_F(RerouteMlu, MoveBudgetRespected) {
  core::RerouteOptions strict = options_;
  strict.max_moves = 1;
  const auto rr = core::minimize_congestion(state_, core::run_pm(state_),
                                            tm_, strict);
  EXPECT_LE(rr.moves, 1);
}

}  // namespace
}  // namespace pm
