#include <gtest/gtest.h>

#include <algorithm>

#include <vector>

#include "core/metrics.hpp"
#include "core/naive.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/retroflow.hpp"
#include "core/scenario.hpp"
#include "sim/cascade.hpp"

namespace pm {
namespace {

const sdwan::Network& att() {
  static const sdwan::Network net = core::make_att_network();
  return net;
}

// ---------------------------------------------------------------------
// NaiveNearest baseline
// ---------------------------------------------------------------------

TEST(NaiveNearest, AdoptsEverySwitchAtItsNearestController) {
  const sdwan::FailureState state(att(), {{3}});
  const core::RecoveryPlan plan = core::run_naive_nearest(state);
  EXPECT_EQ(plan.mapping.size(), state.offline_switches().size());
  for (const auto& [sw, ctrl] : plan.mapping) {
    EXPECT_EQ(ctrl, state.nearest_active_controller(sw));
  }
  EXPECT_TRUE(plan.whole_switch_control);
}

TEST(NaiveNearest, CanViolateCapacity) {
  // Fail controllers of nodes 13 and 20: the naive takeover dumps the
  // hub's whole gamma on nearby controllers, which cannot hold it.
  const sdwan::FailureState state(att(), {{3, 4}});
  const core::RecoveryPlan plan = core::run_naive_nearest(state);
  EXPECT_FALSE(core::validate_plan(state, plan).empty())
      << "the strawman is supposed to overload controllers here";
}

// ---------------------------------------------------------------------
// Cascade simulation
// ---------------------------------------------------------------------

TEST(Cascade, PmNeverCascades) {
  const sim::RecoveryPolicy pm = [](const sdwan::FailureState& st) {
    return core::run_pm(st);
  };
  for (int k = 1; k <= 3; ++k) {
    for (const auto& sc : sdwan::enumerate_failures(att(), k)) {
      const auto r = sim::simulate_cascade(att(), sc.failed, pm);
      EXPECT_EQ(r.induced_failures(), 0u) << sc.label(att());
      EXPECT_FALSE(r.collapsed);
      EXPECT_EQ(r.rounds.size(), 1u);
      EXPECT_LE(r.rounds.front().max_load_ratio, 1.0 + 1e-9);
    }
  }
}

TEST(Cascade, NaiveCascadesSomewhere) {
  const sim::RecoveryPolicy naive = [](const sdwan::FailureState& st) {
    return core::run_naive_nearest(st);
  };
  int cascades = 0;
  for (const auto& sc : sdwan::enumerate_failures(att(), 2)) {
    const auto r = sim::simulate_cascade(att(), sc.failed, naive);
    if (r.induced_failures() > 0) ++cascades;
    // Bookkeeping invariants hold regardless.
    EXPECT_GE(r.final_failed.size(), sc.failed.size());
    EXPECT_EQ(r.rounds.front().newly_failed, sc.failed);
  }
  EXPECT_GT(cascades, 0)
      << "capacity-blind adoption must overload someone in 2-failure "
         "cases";
}

TEST(Cascade, ToleranceDampensCascade) {
  const sim::RecoveryPolicy naive = [](const sdwan::FailureState& st) {
    return core::run_naive_nearest(st);
  };
  int strict = 0;
  int lax = 0;
  for (const auto& sc : sdwan::enumerate_failures(att(), 2)) {
    strict += sim::simulate_cascade(att(), sc.failed, naive, 0.0)
                      .induced_failures() > 0
                  ? 1
                  : 0;
    lax += sim::simulate_cascade(att(), sc.failed, naive, 10.0)
                   .induced_failures() > 0
               ? 1
               : 0;
  }
  EXPECT_LE(lax, strict);
  EXPECT_EQ(lax, 0);  // 1000% headroom tolerance swallows everything
}

TEST(Cascade, CollapseIsReported) {
  // A pathological policy that overloads everyone by claiming per-switch
  // control at every controller... simplest: naive with zero-capacity
  // network. Use a tiny capacity so any adoption overloads.
  sdwan::NetworkConfig cfg;
  cfg.controller_capacity = 1.0;  // normal load already exceeds this
  const sdwan::Network tiny = core::make_att_network(cfg);
  const sim::RecoveryPolicy naive = [](const sdwan::FailureState& st) {
    return core::run_naive_nearest(st);
  };
  const auto r = sim::simulate_cascade(tiny, {0}, naive);
  EXPECT_TRUE(r.collapsed);
  EXPECT_EQ(r.final_failed.size(),
            static_cast<std::size_t>(tiny.controller_count()));
}

// ---------------------------------------------------------------------
// Incremental PM (successive failures) + churn metric
// ---------------------------------------------------------------------

TEST(PlanChurn, SelfChurnIsZeroAndDiffCounts) {
  const sdwan::FailureState state(att(), {{3}});
  const core::RecoveryPlan plan = core::run_pm(state);
  const auto self = core::plan_churn(plan, plan);
  EXPECT_EQ(self.total(), 0u);

  core::RecoveryPlan other = plan;
  ASSERT_FALSE(other.mapping.empty());
  // Change one mapping, add one entry, remove one entry.
  const auto first_switch = other.mapping.begin()->first;
  other.mapping[first_switch] =
      other.mapping.begin()->second == state.active_controllers().front()
          ? state.active_controllers().back()
          : state.active_controllers().front();
  other.sdn_assignments.erase(other.sdn_assignments.begin());
  other.sdn_assignments.insert(other.sdn_assignments.begin(), {-99, -99});
  const auto churn = core::plan_churn(plan, other);
  EXPECT_EQ(churn.mappings_changed, 1u);
  EXPECT_EQ(churn.entries_added, 1u);
  EXPECT_EQ(churn.entries_removed, 1u);
  EXPECT_EQ(churn.total(), 3u);
}

TEST(IncrementalPm, ValidAndLowerChurnInAggregate) {
  // A single sequence can tie (e.g. when the first plan leaned on the
  // controller that dies next, the seed contributes nothing), so compare
  // churn and quality summed over every ordered failure pair.
  std::size_t churn_incr_sum = 0;
  std::size_t churn_scratch_sum = 0;
  std::int64_t total_incr = 0;
  std::int64_t total_scratch = 0;
  const int m = att().controller_count();
  for (int first = 0; first < m; ++first) {
    for (int second = 0; second < m; ++second) {
      if (first == second) continue;
      const sdwan::FailureState st1(att(), {{first}});
      const core::RecoveryPlan plan1 = core::run_pm(st1);
      sdwan::FailureScenario sc2;
      sc2.failed = {std::min(first, second), std::max(first, second)};
      const sdwan::FailureState st2(att(), sc2);

      core::PmOptions opts;
      opts.seed = &plan1;
      const core::RecoveryPlan incremental = core::run_pm(st2, opts);
      const core::RecoveryPlan scratch = core::run_pm(st2);
      ASSERT_TRUE(core::validate_plan(st2, incremental).empty());

      churn_incr_sum += core::plan_churn(plan1, incremental).total();
      churn_scratch_sum += core::plan_churn(plan1, scratch).total();
      total_incr +=
          core::evaluate_plan(st2, incremental).total_programmability;
      total_scratch +=
          core::evaluate_plan(st2, scratch).total_programmability;
    }
  }
  // PM is deterministic and stable, so from-scratch recomputation often
  // re-derives the same plan; seeding guarantees churn never exceeds it.
  EXPECT_LE(churn_incr_sum, churn_scratch_sum);
  // Quality stays within 10% of scratch in aggregate.
  EXPECT_GE(total_incr,
            static_cast<std::int64_t>(0.9 * static_cast<double>(
                                                total_scratch)));
}

TEST(IncrementalPm, SeedMappingsToFailedControllersDropped) {
  // Seed mappings that point at the newly failed controller must not
  // survive into the incremental plan.
  const sdwan::FailureState st1(att(), {{4}});  // C20 fails first
  const core::RecoveryPlan plan1 = core::run_pm(st1);
  // Did plan1 map anything to controller 3 (C13)? It is the nearest
  // neighbor of the mountain domain, so almost surely yes.
  bool used_c13 = false;
  for (const auto& [sw, j] : plan1.mapping) {
    (void)sw;
    if (j == 3) used_c13 = true;
  }
  const sdwan::FailureState st2(att(), {{3, 4}});  // now C13 dies too
  core::PmOptions opts;
  opts.seed = &plan1;
  const core::RecoveryPlan plan2 = core::run_pm(st2, opts);
  for (const auto& [sw, j] : plan2.mapping) {
    (void)sw;
    EXPECT_NE(j, 3);
    EXPECT_NE(j, 4);
  }
  EXPECT_TRUE(core::validate_plan(st2, plan2).empty());
  (void)used_c13;
}

TEST(Cascade, RoundPlansRecordNaiveCollapseWhileSmartPoliciesHold) {
  // The paper's hub failure set: controllers at nodes 13 and 20 (ids 3
  // and 4). Capacity-blind nearest-controller adoption overloads its
  // adopters round after round until every controller is down; the
  // capacity-aware policies absorb the exact same failure set in one
  // round. round_plans exposes the per-round planning record that makes
  // the difference inspectable.
  const std::vector<sdwan::ControllerId> initial = {3, 4};
  const sim::RecoveryPolicy naive = [](const sdwan::FailureState& st) {
    return core::run_naive_nearest(st);
  };
  const auto nr = sim::simulate_cascade(att(), initial, naive);
  EXPECT_GT(nr.induced_failures(), 0u);
  EXPECT_TRUE(nr.collapsed);
  // One plan per planning round; the terminal collapse round plans
  // nothing, so on collapse there is exactly one fewer plan than rounds.
  ASSERT_EQ(nr.round_plans.size(), nr.rounds.size() - 1);

  const std::vector<sim::RecoveryPolicy> smart = {
      [](const sdwan::FailureState& st) { return core::run_pm(st); },
      [](const sdwan::FailureState& st) {
        return core::run_retroflow(st);
      },
      [](const sdwan::FailureState& st) { return core::run_pg(st); },
  };
  for (const auto& policy : smart) {
    const auto r = sim::simulate_cascade(att(), initial, policy);
    EXPECT_EQ(r.induced_failures(), 0u);
    EXPECT_FALSE(r.collapsed);
    ASSERT_EQ(r.round_plans.size(), r.rounds.size());
    // The recorded last round IS the final plan.
    EXPECT_EQ(r.final_plan.mapping, r.round_plans.back().mapping);
    EXPECT_EQ(r.final_plan.sdn_assignments,
              r.round_plans.back().sdn_assignments);
  }
}

TEST(IncrementalPm, EmptySeedEqualsScratch) {
  const sdwan::FailureState st(att(), {{1}});
  core::RecoveryPlan empty;
  core::PmOptions opts;
  opts.seed = &empty;
  const auto seeded = core::run_pm(st, opts);
  const auto scratch = core::run_pm(st);
  EXPECT_EQ(seeded.mapping, scratch.mapping);
  EXPECT_EQ(seeded.sdn_assignments, scratch.sdn_assignments);
}

}  // namespace
}  // namespace pm
