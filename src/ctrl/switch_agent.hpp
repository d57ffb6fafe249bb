// Switch-side protocol agent: owns one HybridSwitch of the data plane and
// reacts to control messages — RoleRequest changes its master controller,
// FlowMod installs/removes entries (acked, barrier-style). A switch whose
// master is gone keeps forwarding with whatever tables it has (that is
// the whole premise of hybrid recovery: the legacy table keeps working).
//
// Reliable delivery: every delivered message carries the channel's
// sequence number. The agent remembers the seqs it has acted on, so a
// duplicate (channel-injected copy or controller retransmission) is
// suppressed instead of re-applied — but still re-acknowledged, because
// the duplicate usually means the first ack was lost.
//
// Transactional recovery: the agent keeps an epoch high-water mark over
// the RoleRequests/FlowMods it has accepted. A message whose epoch is
// below the mark comes from a deposed master's superseded wave and is
// discarded (counted, no ack) — so a coordinator that crashed mid-wave
// cannot keep programming switches after its successor re-ran the wave.
// Each installed entry remembers the epoch that installed it (the
// consistency auditor checks no flow mixes epochs), and a re-install of
// the same match replaces the old entry instead of stacking a duplicate.
#pragma once

#include <cstdint>
#include <utility>

#include "ctrl/channel.hpp"
#include "ctrl/messages.hpp"
#include "sdwan/hybrid_switch.hpp"
#include "util/flat_map.hpp"

namespace pm::ctrl {

/// Installing epoch per flow-table entry, keyed by the entry's (src,
/// dst) match and iterated in match order.
using EntryEpochs =
    util::FlatMap<std::pair<sdwan::SwitchId, sdwan::SwitchId>, std::uint64_t>;

class SwitchAgent {
 public:
  /// `sw` must outlive the agent (it lives in the shared Dataplane).
  SwitchAgent(sdwan::SwitchId id, sdwan::HybridSwitch& sw,
              ControlChannel& channel);

  sdwan::SwitchId id() const { return id_; }

  /// Current master controller, or -1 when orphaned.
  sdwan::ControllerId master() const { return master_; }

  void set_initial_master(sdwan::ControllerId j, EndpointId endpoint) {
    master_ = j;
    master_endpoint_ = endpoint;
  }

  /// Marks the master as dead (the agent itself has no failure detector;
  /// the simulation harness informs it, modeling the OpenFlow channel
  /// teardown). Tables are untouched.
  void orphan() {
    master_ = -1;
    master_endpoint_ = -1;
  }

  std::uint64_t flow_mods_applied() const { return flow_mods_applied_; }

  /// Messages whose seq was already processed (retransmits + channel
  /// duplicates) and were therefore not re-applied.
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }

  /// Highest recovery epoch this switch has accepted a message from.
  std::uint64_t epoch() const { return epoch_; }

  /// RoleRequests/FlowMods discarded because their epoch was below the
  /// high-water mark (a deposed master's superseded wave).
  std::uint64_t stale_discarded() const { return stale_discarded_; }

  /// The epoch that installed each currently present flow-table entry,
  /// keyed by the entry's (src, dst) match. The consistency auditor
  /// reads this to detect mixed-epoch flow state.
  const EntryEpochs& entry_epochs() const { return entry_epochs_; }

  /// Wire this agent's handler into the channel.
  void attach();

 private:
  void on_message(const Message& m);

  sdwan::SwitchId id_;
  sdwan::HybridSwitch* switch_;
  ControlChannel* channel_;
  sdwan::ControllerId master_ = -1;
  EndpointId master_endpoint_ = -1;
  std::uint64_t epoch_ = 0;
  std::uint64_t flow_mods_applied_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t stale_discarded_ = 0;
  SeenSeqs seen_seqs_;
  EntryEpochs entry_epochs_;
};

/// Endpoint id helpers shared by agents and the harness.
inline EndpointId switch_endpoint(sdwan::SwitchId s) { return s; }
EndpointId controller_endpoint(const sdwan::Network& net,
                               sdwan::ControllerId j);

}  // namespace pm::ctrl
