// The output every recovery algorithm produces, mirroring the decision
// variables of the FMSSM problem (Sec. IV):
//   mapping          — X: offline switch -> active controller (x_ij),
//   sdn_assignments  — Y: (offline switch, flow) pairs routed in SDN mode
//                      there (y_i^l = 1); all other flows at that switch
//                      fall back to the legacy table (hybrid mode).
//
// A plan is *valid* when it respects the constraints of problem (P):
// one controller per switch, assignments only at mapped switches with
// beta = 1, and no controller above its residual capacity. The delay
// budget (Eq. 14) is reported as a metric rather than enforced, because
// the PM heuristic treats it as a soft preference (Sec. VI-C-2(3)).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sdwan/failure.hpp"

namespace pm::core {

/// One SDN-mode selection: (offline switch, flow).
using Assignment = std::pair<sdwan::SwitchId, sdwan::FlowId>;

struct RecoveryPlan {
  std::string algorithm;

  /// X: offline switch -> active controller.
  std::map<sdwan::SwitchId, sdwan::ControllerId> mapping;

  /// Y: SDN-mode selections, (offline switch, flow), sorted ascending and
  /// duplicate-free — the invariant validate_plan checks and every
  /// membership test (has_assignment) relies on.
  std::vector<Assignment> sdn_assignments;

  /// Flow-level solutions (PG) may slice one switch across several
  /// controllers through the middle layer; such plans record the exact
  /// controller of each assignment here, aligned with sdn_assignments by
  /// position, overriding `mapping` for capacity and overhead accounting.
  /// An entry of -1 defers to the switch's mapping. Switch-controller
  /// solutions leave it empty.
  std::vector<sdwan::ControllerId> assignment_controller;

  /// Extra per-control-message processing latency in ms (nonzero only for
  /// PG, whose FlowVisor-style middle layer handles every message).
  double middle_layer_ms = 0.0;

  /// True for switch-level solutions (RetroFlow): a mapped switch costs
  /// its full gamma_i control units — the controller manages every flow
  /// entry there, not just the beta = 1 ones. Per-flow solutions leave
  /// this false and pay one unit per SDN assignment.
  bool whole_switch_control = false;

  /// Wall-clock time the algorithm took to produce the plan.
  double solve_seconds = 0.0;

  /// For solver-backed algorithms: true when the solution is proven
  /// optimal. Heuristics leave it false.
  bool proven_optimal = false;

  /// Free-form status note (e.g. the MIP status for Optimal).
  std::string note;

  /// Controller that switch `i` is mapped to, or -1.
  sdwan::ControllerId controller_of(sdwan::SwitchId i) const;

  /// True iff (i, l) is in sdn_assignments (a binary search).
  bool has_assignment(sdwan::SwitchId i, sdwan::FlowId l) const;

  /// Controller serving the assignment at position k of sdn_assignments:
  /// its per-pair controller if recorded, otherwise the switch's mapping.
  sdwan::ControllerId controller_of_assignment(std::size_t k) const;

  /// Controller serving assignment (i, l): the per-pair controller if
  /// recorded, otherwise the switch's mapping. -1 if neither exists.
  sdwan::ControllerId controller_of_assignment(sdwan::SwitchId i,
                                               sdwan::FlowId l) const;
};

/// Restores the sdn_assignments invariant after unordered insertion:
/// sorts the pairs, carrying assignment_controller along, and keeps one
/// entry per pair (with the last recorded controller among duplicates).
void sort_assignments(RecoveryPlan& plan);

/// Capacity units the plan consumes per active controller, honoring the
/// plan's load model (per assignment, or per whole switch for RetroFlow).
std::map<sdwan::ControllerId, double> controller_loads(
    const sdwan::FailureState& state, const RecoveryPlan& plan);

/// Violations of the hard FMSSM constraints; empty means the plan is valid
/// for `state`. Each entry is a human-readable description.
std::vector<std::string> validate_plan(const sdwan::FailureState& state,
                                       const RecoveryPlan& plan);

/// h^l for every flow, indexed by flow id: the recovered path
/// programmability sum_{(i,l) in Y} p_i^l. 0 for flows without
/// assignments.
std::vector<std::int64_t> flow_programmability(
    const sdwan::FailureState& state, const RecoveryPlan& plan);

/// Drops mapped switches that carry no SDN assignment (they would consume
/// a control channel without controlling anything). All algorithms call
/// this before returning.
void prune_unused_mappings(RecoveryPlan& plan);

/// Reconfiguration cost of replacing `before` with `after`: how many
/// switch-controller sessions change and how many flow entries must be
/// installed/removed. Used to evaluate incremental recovery under
/// successive failures.
struct PlanChurn {
  std::size_t mappings_changed = 0;  ///< switches whose controller differs
  std::size_t entries_added = 0;
  std::size_t entries_removed = 0;

  std::size_t total() const {
    return mappings_changed + entries_added + entries_removed;
  }
};

PlanChurn plan_churn(const RecoveryPlan& before, const RecoveryPlan& after);

}  // namespace pm::core
