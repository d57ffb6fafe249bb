// Congestion-aware rerouting on top of recovered programmability — the
// payoff the paper motivates with SWAN/B4 (Sec. I): when traffic surges,
// programmable flows can move off hot links; offline flows cannot.
//
// Mechanism-faithful rerouting: a flow can change its path only at a
// switch where it is programmable —
//   * at an ONLINE switch on its path (its domain controller still runs),
//   * at an offline switch only if the recovery plan put the flow in SDN
//     mode there ((i, l) in Y).
// At such a switch the controller may pick any neighbor as the new next
// hop; the packet then follows the legacy (OSPF) tables from that
// neighbor, per the hybrid pipeline of Fig. 2. Candidate paths are
// therefore "prefix + neighbor + OSPF tail", checked loop-free.
//
// The engine greedily moves flows off the most-utilized link while the
// maximum link utilization (MLU) improves. Comparing the reachable MLU
// under PM's plan vs RetroFlow's quantifies what recovered
// programmability is worth to traffic engineering.
#pragma once

#include <map>
#include <vector>

#include "core/recovery_plan.hpp"
#include "sdwan/traffic.hpp"

namespace pm::core {

struct RerouteOptions {
  double link_capacity_mbps = 1000.0;
  /// Stop after this many flow moves (safety valve).
  int max_moves = 500;
};

struct RerouteResult {
  /// Flows moved off their default path, with their new paths.
  std::map<sdwan::FlowId, std::vector<sdwan::SwitchId>> new_paths;
  double initial_mlu = 0.0;
  double final_mlu = 0.0;
  int moves = 0;
};

/// Switches on `flow`'s current path where it can change next hop, given
/// the failure state and recovery plan (see file comment).
std::vector<sdwan::SwitchId> reroutable_switches(
    const sdwan::FailureState& state, const RecoveryPlan& plan,
    sdwan::FlowId flow);

/// Loop-free candidate paths for `flow` obtained by changing the next hop
/// at `at` and continuing over the legacy tables.
std::vector<std::vector<sdwan::SwitchId>> candidate_paths(
    const sdwan::Network& net, sdwan::FlowId flow, sdwan::SwitchId at);

/// Greedy MLU minimization. `tm` is the offered traffic.
RerouteResult minimize_congestion(const sdwan::FailureState& state,
                                  const RecoveryPlan& plan,
                                  const sdwan::TrafficMatrix& tm,
                                  const RerouteOptions& options = {});

}  // namespace pm::core
