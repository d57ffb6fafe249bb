// ProgrammabilityMedic — the paper's Algorithm 1.
//
// A faithful implementation of the heuristic of Sec. V, in two stages:
//
//  1. Balancing loop (lines 2-40): repeatedly pick the offline switch with
//     the most least-programmability flows, map it to the nearest active
//     controller with enough headroom (falling back to the
//     largest-residual-capacity controller), and put the
//     least-programmability flows there into SDN mode while capacity
//     lasts. After every full sweep of the switch set, the "water level"
//     sigma rises to the new minimum programmability. The loop runs
//     TOTAL_ITERATIONS = max offline switches on any offline flow's path
//     times, after which the minimum cannot improve further.
//  2. Utilization pass (lines 42-50): spend any remaining controller
//     capacity on arbitrary feasible (switch, flow) SDN selections to
//     maximize total programmability (the paper's third design goal).
//
// Listing ambiguities resolved (documented in DESIGN.md):
//  * lines 20-24 scan controllers in ascending delay order; we stop at the
//    FIRST controller with enough capacity (the listing as printed would
//    keep overwriting j0 and select the farthest, contradicting the
//    stated intent of testing "following the ascending order").
//  * if no switch in S* has a least-programmability flow (delta stays 0,
//    i0 = NULL), the sweep is restarted immediately — the listing would
//    dereference NULL.
//  * switches that end up mapped but carry no SDN assignment are pruned.
#pragma once

#include "core/recovery_plan.hpp"

namespace pm::core {

struct PmOptions {
  /// Incremental mode for successive failures (Sec. I: "several
  /// controllers may fail simultaneously or fail successively"): still-
  /// valid mappings and SDN selections of a previous plan are kept, and
  /// Algorithm 1 continues from them — minimizing reconfiguration churn
  /// when another controller dies. Must outlive the call; nullptr = cold
  /// start.
  const RecoveryPlan* seed = nullptr;
  /// Skip stage 2 (utilization pass) — used by the ablation bench to
  /// quantify the paper's "fully utilize controllers" design goal.
  bool skip_utilization_pass = false;
  /// Stage-1 switch selection: pick the switch with the most
  /// least-programmability flows (the paper's rule). The ablation bench
  /// flips this to pick the lowest-id switch instead.
  bool greedy_switch_selection = true;
};

RecoveryPlan run_pm(const sdwan::FailureState& state, PmOptions options = {});

}  // namespace pm::core
