// Cascading controller failure analysis (the risk the paper cites from
// Yao et al. [8], Sec. I and Sec. IV-B-4).
//
// After a failure, a recovery policy remaps offline switches onto the
// surviving controllers. If a controller ends up loaded beyond its
// capacity (normal load + adopted load), it fails in the next round, its
// domain goes offline too, and the policy runs again — possibly until the
// whole control plane is gone. Capacity-respecting policies (PM,
// RetroFlow, PG, Optimal) are cascade-free by construction; the
// NaiveNearest takeover is not.
#pragma once

#include <functional>
#include <vector>

#include "core/recovery_plan.hpp"

namespace pm::sim {

/// Computes a recovery plan for a failure state.
using RecoveryPolicy =
    std::function<core::RecoveryPlan(const sdwan::FailureState&)>;

struct CascadeRound {
  /// Controllers that failed going INTO this round (cumulative set is in
  /// CascadeResult::final_failed).
  std::vector<sdwan::ControllerId> newly_failed;
  std::size_t offline_switches = 0;
  /// Worst controller load / capacity after recovery this round.
  double max_load_ratio = 0.0;
};

struct CascadeResult {
  std::vector<CascadeRound> rounds;
  std::vector<sdwan::ControllerId> final_failed;
  /// True if every controller ended up failed.
  bool collapsed = false;
  /// The last round's plan (empty when collapsed).
  core::RecoveryPlan final_plan;
  /// The plan computed in each round that ran the policy, in round
  /// order. A collapse round computes no plan, so on collapse this holds
  /// one entry fewer than `rounds`; otherwise the sizes match and the
  /// last element equals `final_plan`.
  std::vector<core::RecoveryPlan> round_plans;

  std::size_t initial_failures() const {
    return rounds.empty() ? 0 : rounds.front().newly_failed.size();
  }
  std::size_t induced_failures() const {
    return final_failed.size() - initial_failures();
  }
};

/// Iterates failure -> recovery -> overload-induced failure to a fixed
/// point. `overload_tolerance` is the fractional overload a controller
/// survives (0.05 = 5% headroom violation tolerated).
CascadeResult simulate_cascade(const sdwan::Network& net,
                               std::vector<sdwan::ControllerId> initial,
                               const RecoveryPolicy& policy,
                               double overload_tolerance = 0.0);

}  // namespace pm::sim
