#include "core/pm_algorithm.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "obs/profile.hpp"

namespace pm::core {

namespace {

using sdwan::ControllerId;
using sdwan::FlowId;
using sdwan::SwitchId;

/// Dense working state of Algorithm 1. Switch, controller and flow ids are
/// small dense integers, so every map the balancing loop used to consult is
/// a vector indexed by id: the inner sweeps touch contiguous memory and
/// never pay a tree lookup. The flows at each offline switch come from
/// FailureState::opportunities_at (ascending flow id, which makes seed
/// adoption a binary search).
struct WorkingState {
  /// assigned[k] = 1 iff opportunity k of FailureState's flat array is
  /// already in SDN mode; the plan's assignments are emitted from it.
  std::vector<char> assigned;
  /// Residual capacity per controller id (active entries only are read).
  std::vector<double> rest;
  /// H per flow id; valid only where recoverable[l] != 0.
  std::vector<char> recoverable;
  std::vector<std::int64_t> h;
  /// Controller each offline switch is mapped to so far; -1 = unmapped.
  /// Mirrors plan.mapping.
  std::vector<ControllerId> mapped_to;
};

WorkingState build_working_state(const sdwan::FailureState& state) {
  const sdwan::Network& net = state.network();
  WorkingState w;
  w.assigned.assign(state.opportunity_count(), 0);
  w.rest.assign(static_cast<std::size_t>(net.controller_count()), 0.0);
  for (ControllerId j : state.active_controllers()) {
    w.rest[static_cast<std::size_t>(j)] = state.rest_capacity(j);
  }
  w.recoverable.assign(static_cast<std::size_t>(net.flow_count()), 0);
  w.h.assign(static_cast<std::size_t>(net.flow_count()), 0);
  for (FlowId l : state.recoverable_flows()) {
    w.recoverable[static_cast<std::size_t>(l)] = 1;
  }
  w.mapped_to.assign(static_cast<std::size_t>(net.switch_count()), -1);
  return w;
}

}  // namespace

RecoveryPlan run_pm(const sdwan::FailureState& state, PmOptions options) {
  OBS_SPAN("pm.run");
  const auto start = std::chrono::steady_clock::now();
  RecoveryPlan plan;
  plan.algorithm = "PM";

  WorkingState w = build_working_state(state);
  const auto& recoverable_flows = state.recoverable_flows();

  const int total_iterations =
      options.total_iterations > 0 ? options.total_iterations
                                   : state.max_offline_switches_on_path();

  // Incremental mode: adopt the still-valid parts of a previous plan
  // before the balancing loop (the loop then treats the adopted switches
  // as already mapped, exactly like its own line-18 path).
  if (options.seed != nullptr) {
    for (const auto& [sw, ctrl] : options.seed->mapping) {
      if (state.is_offline_switch(sw) && state.is_active_controller(ctrl)) {
        plan.mapping[sw] = ctrl;
        w.mapped_to[static_cast<std::size_t>(sw)] = ctrl;
      }
    }
    for (const auto& [sw, flow] : options.seed->sdn_assignments) {
      const ControllerId j =
          (sw >= 0 && sw < state.network().switch_count())
              ? w.mapped_to[static_cast<std::size_t>(sw)]
              : plan.controller_of(sw);
      if (j < 0) continue;
      if (flow < 0 || flow >= state.network().flow_count() ||
          !w.recoverable[static_cast<std::size_t>(flow)]) {
        continue;
      }
      // A switch's opportunities ascend in flow id, so the old linear
      // find_if is a binary search.
      const auto flows = state.opportunities_at(sw);
      const auto it = std::lower_bound(
          flows.begin(), flows.end(), flow,
          [](const auto& opp, FlowId f) { return opp.flow < f; });
      if (it == flows.end() || it->flow != flow ||
          w.rest[static_cast<std::size_t>(j)] < 1.0) {
        continue;
      }
      w.rest[static_cast<std::size_t>(j)] -= 1.0;
      w.h[static_cast<std::size_t>(flow)] += it->p;
      w.assigned[it->index] = 1;
    }
  }

  // Line 1: X = Y = empty, S* = S, sigma = 0, test_count = 0.
  std::vector<SwitchId> untested = state.offline_switches();
  std::int64_t sigma = 0;
  int test_count = 0;

  auto restart_sweep = [&] {
    untested = state.offline_switches();
    ++test_count;
    // sigma = min(H) — the water level rises to the new minimum.
    std::int64_t min_h = std::numeric_limits<std::int64_t>::max();
    for (FlowId l : recoverable_flows) {
      min_h = std::min(min_h, w.h[static_cast<std::size_t>(l)]);
    }
    if (!recoverable_flows.empty()) sigma = min_h;
  };

  // Lines 2-40: the balancing loop.
  {
    OBS_SPAN("pm.balancing");
    while (test_count < total_iterations && !recoverable_flows.empty()) {
      // Lines 5-15: find the switch with the most least-programmability
      // flows. `untested` is kept ascending, so ties pick the lowest id.
      std::size_t delta = 0;
      SwitchId i0 = -1;
      for (SwitchId s : untested) {
        std::size_t count = 0;
        for (const auto& opp : state.opportunities_at(s)) {
          if (w.h[static_cast<std::size_t>(opp.flow)] == sigma) ++count;
        }
        if (count > delta) {
          delta = count;
          i0 = s;
          if (!options.greedy_switch_selection) break;  // first viable switch
        }
      }
      if (i0 < 0) {
        // No untested switch hosts a least-programmability flow: nothing in
        // this sweep can raise the minimum, so start the next sweep.
        restart_sweep();
        continue;
      }

      // Lines 17-28: map switch i0 to a controller j0.
      ControllerId j0 = w.mapped_to[static_cast<std::size_t>(i0)];
      if (j0 < 0) {
        for (ControllerId j : state.controllers_by_delay(i0)) {
          if (w.rest[static_cast<std::size_t>(j)] >=
              static_cast<double>(state.gamma(i0))) {
            j0 = j;
            break;  // nearest capable controller
          }
        }
        if (j0 < 0) {
          // Line 26: fall back to the controller with maximum residual
          // capacity.
          double best = -1.0;
          for (ControllerId j : state.active_controllers()) {
            if (w.rest[static_cast<std::size_t>(j)] > best) {
              best = w.rest[static_cast<std::size_t>(j)];
              j0 = j;
            }
          }
        }
        plan.mapping[i0] = j0;  // line 29: X <- X + (i0, j0)
        w.mapped_to[static_cast<std::size_t>(i0)] = j0;
      }
      std::erase(untested, i0);  // line 29: S* <- S* \ s_i0

      // Lines 31-36: put least-programmability flows at i0 into SDN mode.
      for (const auto& opp : state.opportunities_at(i0)) {
        // An assignment costs one whole control unit, so a fractional
        // residual below 1 cannot host it.
        if (w.h[static_cast<std::size_t>(opp.flow)] <= sigma &&
            !w.assigned[opp.index] &&
            w.rest[static_cast<std::size_t>(j0)] >= 1.0) {
          w.rest[static_cast<std::size_t>(j0)] -= 1.0;
          w.h[static_cast<std::size_t>(opp.flow)] += opp.p;
          w.assigned[opp.index] = 1;
        }
      }

      // Lines 37-39: sweep finished — raise the water level.
      if (untested.empty()) restart_sweep();
    }
  }

  // Lines 42-50: utilization pass — spend leftover capacity.
  if (!options.skip_utilization_pass) {
    OBS_SPAN("pm.utilization");
    // offline_switches() ascends, so switches are visited in the same
    // order the map-keyed working state used.
    for (const SwitchId i0 : state.offline_switches()) {
      const ControllerId j0 = w.mapped_to[static_cast<std::size_t>(i0)];
      if (j0 < 0) continue;
      for (const auto& opp : state.opportunities_at(i0)) {
        if (w.rest[static_cast<std::size_t>(j0)] >= 1.0 &&
            !w.assigned[opp.index]) {
          w.rest[static_cast<std::size_t>(j0)] -= 1.0;
          w.assigned[opp.index] = 1;
        }
      }
    }
  }

  // Y in (switch, flow) order, straight from the flags.
  for (const SwitchId sw : state.offline_switches()) {
    for (const auto& opp : state.opportunities_at(sw)) {
      if (w.assigned[opp.index]) {
        plan.sdn_assignments.emplace_back(sw, opp.flow);
      }
    }
  }

  prune_unused_mappings(plan);
  plan.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return plan;
}

}  // namespace pm::core
