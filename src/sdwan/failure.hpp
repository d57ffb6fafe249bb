// Controller-failure scenarios and the derived view the recovery
// algorithms work on (the quantities of Sec. IV-A):
//   offline switches S, active controllers C, offline flows F,
//   residual capacities A_j^rest, flow counts gamma_i, delays D_ij and the
//   ideal-case delay budget G of Eq. (6).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sdwan/network.hpp"

namespace pm::sdwan {

struct FailureScenario {
  /// Failed controller ids, ascending. May be empty (no failure).
  std::vector<ControllerId> failed;

  /// Human-readable label using the controllers' node names, e.g.
  /// "(13, 20)" for the paper's two-failure case notation.
  std::string label(const Network& net) const;

  /// Inverse of label(): fails the controllers at the comma-separated
  /// node ids in `nodes` (e.g. "13,20"). Throws std::invalid_argument,
  /// naming the controller nodes, on a token that is not an integer or a
  /// node that hosts no controller.
  static FailureScenario parse(const Network& net, std::string_view nodes);
};

/// All C(controller_count, k) scenarios with exactly `k` failed
/// controllers, in lexicographic order — the 6 / 15 / 20 cases of
/// Figs. 4, 5, 6.
std::vector<FailureScenario> enumerate_failures(const Network& net, int k);

/// Immutable derived view of the network under one failure scenario.
/// Keeps a reference to the Network; the Network must outlive it.
class FailureState {
 public:
  FailureState(const Network& net, FailureScenario scenario);

  const Network& network() const { return *net_; }
  const FailureScenario& scenario() const { return scenario_; }

  /// Active controllers (the set C, size M), ascending id.
  const std::vector<ControllerId>& active_controllers() const {
    return active_;
  }
  /// Offline switches (the set S, size N), ascending id.
  const std::vector<SwitchId>& offline_switches() const { return offline_; }
  /// Offline flows (the set F): flows traversing >= 1 offline switch,
  /// ascending id.
  const std::vector<FlowId>& offline_flows() const { return offline_flows_; }

  /// The subset of offline flows with at least one recovery opportunity
  /// (a beta = 1 offline switch on the path). A flow whose only offline
  /// switch is its own destination has no forwarding choice left to
  /// recover, so no algorithm — including the paper's Optimal — can make
  /// it programmable again; the FMSSM instance (the set of L flows) and
  /// the recovery-percentage metrics are defined over this set.
  const std::vector<FlowId>& recoverable_flows() const {
    return recoverable_flows_;
  }

  bool is_offline_switch(SwitchId i) const;
  bool is_active_controller(ControllerId j) const;

  /// A_j^rest — controller j's capacity left after its normal load.
  /// Clamped at 0. Only meaningful for active controllers.
  double rest_capacity(ControllerId j) const;

  /// gamma_i — number of flows traversing offline switch `i` (its
  /// switch-level control cost, as in RetroFlow's model).
  int gamma(SwitchId i) const { return net_->flow_count_at(i); }

  /// A recovery opportunity of an offline flow: an offline switch on its
  /// path where beta = 1, and the programmability p gained by running the
  /// flow in SDN mode there.
  struct Opportunity {
    SwitchId sw = 0;
    std::int64_t p = 0;
  };
  /// Opportunities of offline flow `l`, in path order. Empty for flows
  /// that cannot regain any programmability (all their offline switches
  /// have diversity < 2). A view into one flat array shared by all flows:
  /// opportunities(l)[k] sits at position opportunity_offset(l) + k.
  std::span<const Opportunity> opportunities(FlowId l) const;
  /// Position of flow `l`'s first opportunity in the flat array, so
  /// per-opportunity working state can live in one dense vector of
  /// opportunity_count() entries.
  std::size_t opportunity_offset(FlowId l) const;
  std::size_t opportunity_count() const { return opportunities_.size(); }

  /// The same opportunities seen from the switch side: one entry per
  /// recoverable flow with beta = 1 at the switch, ascending flow id.
  /// `index` is the entry's position in the flat flow-major array.
  struct SwitchOpportunity {
    FlowId flow = 0;
    std::uint32_t index = 0;
    std::int64_t p = 0;
  };
  /// Opportunities at switch `i`, ascending flow id; empty for online
  /// switches. Walking offline_switches() and these in turn visits every
  /// opportunity in (switch, flow) order.
  std::span<const SwitchOpportunity> opportunities_at(SwitchId i) const;

  /// Active controllers sorted by ascending D_ij from switch `i` (the
  /// paper's C(i) ordering; ties broken by controller id): the network's
  /// full order with the failed controllers filtered out, for every
  /// switch at construction, since the planners walk it in inner loops.
  std::span<const ControllerId> controllers_by_delay(SwitchId i) const;

  /// The nearest active controller to switch `i`.
  ControllerId nearest_active_controller(SwitchId i) const;

  /// G of Eq. (6): total control propagation delay if every offline switch
  /// were mapped to its nearest active controller, weighted by gamma_i.
  double ideal_total_delay() const { return ideal_total_delay_; }

  /// TOTAL_ITERATIONS of Algorithm 1: the maximum number of offline
  /// switches on any offline flow's original path.
  int max_offline_switches_on_path() const {
    return max_offline_on_path_;
  }

 private:
  const Network* net_;
  FailureScenario scenario_;
  std::vector<ControllerId> active_;
  std::vector<SwitchId> offline_;
  std::vector<FlowId> offline_flows_;
  std::vector<FlowId> recoverable_flows_;
  std::vector<char> offline_switch_mask_;
  std::vector<char> active_mask_;
  std::vector<double> rest_capacity_;  // indexed by ControllerId
  /// Every flow's opportunities, flow-major in path order; flow l's run
  /// is [flow_offset_[l], flow_offset_[l + 1]).
  std::vector<Opportunity> opportunities_;
  std::vector<std::uint32_t> flow_offset_;
  /// The switch-major transpose; switch i's run is
  /// [switch_offset_[i], switch_offset_[i + 1]).
  std::vector<SwitchOpportunity> at_switch_;
  std::vector<std::uint32_t> switch_offset_;
  /// Switch i's C(i) is [i * M, (i + 1) * M), M = active_.size().
  std::vector<ControllerId> by_delay_;
  double ideal_total_delay_ = 0.0;
  int max_offline_on_path_ = 0;
};

}  // namespace pm::sdwan
