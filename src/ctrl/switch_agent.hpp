// Switch-side protocol agent: owns one HybridSwitch of the data plane and
// reacts to RoleRequests. A request makes its sender the switch's master
// and carries the switch's whole SDN slice; the agent applies it in one
// step and answers with one RoleReply. A switch whose master is gone
// keeps forwarding with whatever tables it has (that is the whole premise
// of hybrid recovery: the legacy table keeps working).
//
// Mark and sweep: applying a slice removes every SDN entry the switch
// holds and installs the slice's entries with the request's epoch as
// their OpenFlow cookie, so entries of superseded waves never survive a
// newer slice (contrail's graceful restart: mark stale, refresh, sweep).
// An empty slice sweeps the table.
//
// Transactional recovery: the agent keeps an epoch high-water mark, the
// highest epoch whose slice it has applied (OpenFlow's generation_id).
// The mark is the agent's only duplicate filter:
//  * a request below the mark comes from a deposed master's superseded
//    wave and is discarded (counted, no reply), so a coordinator that
//    crashed mid-wave cannot keep programming switches after its
//    successor re-ran the wave;
//  * a request at the mark is a duplicate (a channel-injected copy or a
//    retransmission after a lost reply): it is re-replied, not
//    re-applied, and counted;
//  * a request above the mark is applied and raises the mark.
//
// Why "at the mark" means "the same request": a wave calls send_slice
// once per switch and stamps it with its own epoch, retries resend that
// same message, and epochs start at 1 while the mark starts at 0. So
// every request a switch sees at a given epoch carries the same slice.
#pragma once

#include <cstdint>

#include "ctrl/channel.hpp"
#include "ctrl/messages.hpp"
#include "sdwan/hybrid_switch.hpp"

namespace pm::ctrl {

class SwitchAgent {
 public:
  /// `sw` must outlive the agent (it lives in the shared Dataplane).
  SwitchAgent(sdwan::SwitchId id, sdwan::HybridSwitch& sw,
              ControlChannel& channel);

  sdwan::SwitchId id() const { return id_; }

  /// Current master controller, or -1 when orphaned.
  sdwan::ControllerId master() const { return master_; }

  void set_initial_master(sdwan::ControllerId j) { master_ = j; }

  /// Marks the master as dead (the agent itself has no failure detector;
  /// the simulation harness informs it, modeling the OpenFlow channel
  /// teardown). Tables are untouched.
  void orphan() { master_ = -1; }

  /// Slices applied (one per fresh RoleRequest).
  std::uint64_t slices_applied() const { return slices_applied_; }

  /// Requests at the epoch mark (retransmits + channel duplicates of
  /// the slice last applied): re-replied, not re-applied.
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }

  /// Highest recovery epoch whose slice this switch has applied (the
  /// mark); 0 before the first request.
  std::uint64_t epoch() const { return epoch_; }

  /// RoleRequests discarded because their epoch was below the
  /// high-water mark (a deposed master's superseded wave).
  std::uint64_t stale_discarded() const { return stale_discarded_; }

  /// Wire this agent's handler into the channel.
  void attach();

 private:
  void on_message(const Message& m);

  sdwan::SwitchId id_;
  sdwan::HybridSwitch* switch_;
  ControlChannel* channel_;
  sdwan::ControllerId master_ = -1;
  std::uint64_t epoch_ = 0;
  std::uint64_t slices_applied_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t stale_discarded_ = 0;
};

/// Endpoint id helpers shared by agents and the harness.
inline EndpointId switch_endpoint(sdwan::SwitchId s) { return s; }
EndpointId controller_endpoint(const sdwan::Network& net,
                               sdwan::ControllerId j);

}  // namespace pm::ctrl
