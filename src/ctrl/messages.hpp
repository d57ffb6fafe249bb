// Control-plane message vocabulary — an OpenFlow-flavoured protocol for
// the message-level simulation in pm::ctrl.
//
// Endpoints are switches and controllers on one id space: switch s keeps
// its topology node id; controller j gets switch_count + j. Messages are
// plain data; the channel (channel.hpp) delivers them with propagation
// delay and the agents (switch_agent.hpp, controller.hpp) react.
//
// Three kinds: controllers beacon Heartbeats to each other, and a
// recovery wave sends each switch it touches one RoleRequest carrying
// the switch's whole SDN slice, answered by one RoleReply. The switch,
// not the flow entry, is the unit of delivery, retry and degradation.
//
// The channel numbers nothing. Each kind carries the one field its
// receiver filters duplicates by: a Heartbeat its sender's sequence, a
// RoleRequest its wave's epoch. A RoleReply needs no filter, since
// applying it twice changes nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sdwan/hybrid_switch.hpp"
#include "sdwan/types.hpp"

namespace pm::ctrl {

using EndpointId = int;

/// Controller -> controller liveness beacon. `sequence` counts the
/// sender's beats from 0; a receiver acts only on a beat newer than the
/// last one it heard from that peer.
struct Heartbeat {
  sdwan::ControllerId from = -1;
  std::uint64_t sequence = 0;
};

/// Controller -> switch: become my subordinate and run exactly this SDN
/// slice. The one message a recovery wave sends a switch.
///
/// `epoch` is the recovery wave's transaction epoch (monotonically
/// increasing across waves, from 1), OpenFlow's `generation_id`. A switch
/// remembers the highest epoch it has applied: it discards requests below
/// that mark, so a deposed master's stale retransmissions cannot reclaim
/// the switch after a newer wave, and re-replies to a request at the mark
/// without applying it again.
///
/// `entries` is the switch's complete SDN slice at that epoch (OpenFlow's
/// bundle): the switch drops every SDN entry it holds and installs these
/// in one step, each tagged with the epoch as its cookie. An empty slice
/// sweeps the table.
struct RoleRequest {
  sdwan::ControllerId controller = -1;
  std::uint64_t epoch = 0;
  std::vector<sdwan::FlowEntry> entries;
};

/// Switch -> controller: role taken and slice applied (barrier
/// semantics); the only ack in the protocol. Echoes the request's epoch
/// so controllers can ignore replies that belong to a superseded wave.
struct RoleReply {
  sdwan::SwitchId sw = -1;
  std::uint64_t epoch = 0;
};

using MessageBody = std::variant<Heartbeat, RoleRequest, RoleReply>;

struct Message {
  EndpointId from = -1;
  EndpointId to = -1;
  MessageBody body;
};

/// Message kinds, indexed like MessageBody's alternatives.
inline constexpr std::size_t kMessageKindCount =
    std::variant_size_v<MessageBody>;

/// Human-readable tag of kind `index` ("heartbeat", "role-request", ...).
const std::string& message_kind_name(std::size_t index);

/// Human-readable tag for traces ("heartbeat", "role-request", ...).
inline const std::string& message_kind(const Message& m) {
  return message_kind_name(m.body.index());
}

}  // namespace pm::ctrl
