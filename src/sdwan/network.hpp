// The SD-WAN model of Sec. IV-A: a topology partitioned into controller
// domains, with a flow between every ordered node pair forwarded on the
// deterministic shortest path (Sec. VI-A), and with the per-(flow, switch)
// programmability quantities beta_i^l and p_i^l precomputed.
//
// Everything downstream (PM, the baselines, the MILP formulation and the
// metrics) reads this immutable view; failure scenarios are layered on top
// by sdwan::FailureState without copying it.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/path_count.hpp"
#include "sdwan/types.hpp"
#include "topo/topology.hpp"

namespace pm::sdwan {

struct Controller {
  std::string name;        ///< e.g. "C13" — named after its location node.
  SwitchId location = 0;   ///< topology node hosting the controller.
  double capacity = 0.0;   ///< flows it can control (paper: 500).
  std::vector<SwitchId> domain;  ///< switches it controls normally.
};

struct Flow {
  FlowId id = 0;
  SwitchId src = 0;
  SwitchId dst = 0;
  /// Forwarding path, inclusive of both endpoints.
  std::vector<SwitchId> path;
};

struct NetworkConfig {
  /// Control capacity per controller, in (flow, switch) control units.
  double controller_capacity = 500.0;
  /// Policy used for the path-diversity quantity p_i^l.
  graph::PathCountOptions path_count;
};

class Network {
 public:
  /// Builds the model. `domains` maps a controller's location node to the
  /// switches of its domain; domains must partition the node set and each
  /// controller node must belong to its own domain.
  /// Throws std::invalid_argument on violations or a disconnected topology.
  Network(topo::Topology topology,
          std::map<SwitchId, std::vector<SwitchId>> domains,
          NetworkConfig config = {});

  const topo::Topology& topology() const { return topology_; }
  const NetworkConfig& config() const { return config_; }

  int switch_count() const { return topology_.node_count(); }
  int controller_count() const {
    return static_cast<int>(controllers_.size());
  }
  const Controller& controller(ControllerId j) const;
  const std::vector<Controller>& controllers() const { return controllers_; }

  /// The controller whose domain contains switch `i`.
  ControllerId controller_of(SwitchId i) const;

  int flow_count() const { return static_cast<int>(flows_.size()); }
  const Flow& flow(FlowId l) const;
  const std::vector<Flow>& flows() const { return flows_; }

  /// The flow matching packets from `src` to `dst`, or -1 (src == dst,
  /// or either is not a node). Flows are laid out one per ordered pair
  /// in (src, dst) order, so this is arithmetic, not a search.
  FlowId flow_by_match(SwitchId src, SwitchId dst) const {
    const int n = switch_count();
    if (src < 0 || dst < 0 || src >= n || dst >= n || src == dst) return -1;
    return src * (n - 1) + (dst < src ? dst : dst - 1);
  }

  /// Ids of flows whose path traverses switch `i`.
  const std::vector<FlowId>& flows_at(SwitchId i) const;

  /// gamma_i — the number of flows traversing switch `i` (Table III).
  int flow_count_at(SwitchId i) const {
    return static_cast<int>(flows_at(i).size());
  }

  /// Normal-operation control load of controller `j`:
  /// sum of gamma_i over its domain (the unit is per-(flow, switch)
  /// control entries; this reproduces the paper's A_rest values).
  double normal_load(ControllerId j) const;

  /// D_ij of the formulation — control-channel propagation delay between
  /// switch `i` and controller `j`, along the shortest path in the data
  /// network (control traffic is in-band).
  double delay_ms(SwitchId i, ControllerId j) const;

  /// p_i^l — path diversity of flow `l` at switch `i`: the number of
  /// alternative routes from `i` to the flow's destination under the
  /// configured counting policy. 0 if `i` is not on the path or is the
  /// destination.
  std::int64_t diversity(FlowId l, SwitchId i) const;

  /// A flow with p >= 2 at a switch. `rank` is its place among all the
  /// switch's such flows in ascending flow id.
  struct SwitchOpportunity {
    FlowId flow = 0;
    std::uint32_t rank = 0;
    std::int64_t p = 0;
  };
  /// The flows with p >= 2 at switch `i` whose paths cross it at
  /// `position` (< position_count()), ascending by flow id. A failure
  /// set's recovery opportunities are its offline switches' groups, so
  /// FailureState gathers them here instead of walking paths; reading
  /// the groups position by position yields each flow's in path order.
  std::span<const SwitchOpportunity> opportunities_at(
      SwitchId i, std::size_t position) const;
  /// The number of path positions: the longest path's node count.
  std::size_t position_count() const { return position_count_; }

  /// Every controller in ascending D_ij from switch `i`, ties broken by
  /// controller id. A failure state's C(i) is this order with the failed
  /// controllers left out.
  std::span<const ControllerId> controllers_by_delay(SwitchId i) const;

  /// beta_i^l — 1 iff switch `i` is on flow `l`'s path and has at least
  /// two routes to the destination (diversity >= 2), per Sec. IV-A.
  bool beta(FlowId l, SwitchId i) const { return diversity(l, i) >= 2; }

 private:
  topo::Topology topology_;
  NetworkConfig config_;
  std::vector<Controller> controllers_;
  std::vector<ControllerId> controller_of_switch_;
  std::vector<Flow> flows_;
  std::vector<std::vector<FlowId>> flows_at_switch_;
  /// delay_[i][j] = D_ij for every switch i, controller j.
  std::vector<std::vector<double>> delay_;
  /// diversity_[l] maps path position -> p at that switch; aligned with
  /// flows_[l].path.
  std::vector<std::vector<std::int64_t>> diversity_;
  /// The p >= 2 pairs ordered by (switch, position, flow). Group
  /// b = i * position_count_ + position is
  /// [group_offset_[b], group_offset_[b + 1]).
  std::vector<SwitchOpportunity> opportunities_;
  std::vector<std::uint32_t> group_offset_;
  std::size_t position_count_ = 0;
  /// by_delay_[i * controller_count() + k] = switch i's k-th nearest
  /// controller.
  std::vector<ControllerId> by_delay_;
};

}  // namespace pm::sdwan
