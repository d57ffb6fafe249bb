// Control-plane message vocabulary — an OpenFlow-flavoured protocol for
// the message-level simulation in pm::ctrl.
//
// Endpoints are switches and controllers on one id space: switch s keeps
// its topology node id; controller j gets switch_count + j. Messages are
// plain data; the channel (channel.hpp) delivers them with propagation
// delay and the agents (switch_agent.hpp, controller.hpp) react.
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

/// Controller -> controller liveness beacon.
struct Heartbeat {
  sdwan::ControllerId from = -1;
  std::uint64_t sequence = 0;
};

/// Controller -> switch: become (or stop being) my subordinate.
///
/// `epoch` is the recovery wave's transaction epoch (monotonically
/// increasing across waves). A switch remembers the highest epoch it has
/// accepted and discards requests below it, so a deposed master's stale
/// retransmissions cannot reclaim the switch after a newer wave.
struct RoleRequest {
  sdwan::ControllerId controller = -1;
  std::uint64_t epoch = 0;
};

/// One installed flow entry as reported by a switch: the match plus the
/// epoch of the wave that installed it.
struct ReportedEntry {
  sdwan::SwitchId src = -1;
  sdwan::SwitchId dst = -1;
  std::uint64_t epoch = 0;
};

/// Switch -> controller: role accepted. Echoes the request's epoch so
/// controllers can ignore replies that belong to a superseded wave.
///
/// `entries` is the handover resync (OpenFlow reads flow stats on a
/// master change for the same reason): the switch reports what it has
/// installed, so a new master learns about entries whose installing
/// controller died before the ack came back — the only way such state
/// ever becomes visible to the surviving control plane.
struct RoleReply {
  sdwan::SwitchId sw = -1;
  sdwan::ControllerId accepted = -1;
  std::uint64_t epoch = 0;
  std::vector<ReportedEntry> entries;
};

/// Controller -> switch: install or remove one flow entry. Carries the
/// wave epoch; the switch discards mods older than its epoch high-water
/// mark (a deposed master programming against a superseded plan).
struct FlowMod {
  sdwan::FlowEntry entry;
  bool remove = false;
  /// Correlates the ack; also used to count convergence.
  std::uint64_t xid = 0;
  std::uint64_t epoch = 0;
};

/// Switch -> controller: flow-mod applied (barrier semantics). Echoes
/// the mod's epoch; an ack from a superseded wave must not complete (or
/// un-degrade) work in the current one.
struct FlowModAck {
  sdwan::SwitchId sw = -1;
  std::uint64_t xid = 0;
  std::uint64_t epoch = 0;
};

using MessageBody =
    std::variant<Heartbeat, RoleRequest, RoleReply, FlowMod, FlowModAck>;

struct Message {
  EndpointId from = -1;
  EndpointId to = -1;
  MessageBody body;
  /// Channel-assigned sequence number, unique per logical message; a
  /// retransmission reuses the original's seq so receivers can suppress
  /// duplicates (both channel-injected copies and redundant retries).
  /// 0 = not yet assigned.
  std::uint64_t seq = 0;
};

/// The channel seqs a receiver has acted on. Seqs are channel-wide and
/// dense (1, 2, ...), so a bitmap over every seq sent so far replaces a
/// hash set: one bit per seq, no allocation per insert.
class SeenSeqs {
 public:
  bool contains(std::uint64_t seq) const {
    const std::uint64_t word = seq >> 6;
    return seq != 0 && word < words_.size() &&
           ((words_[word] >> (seq & 63)) & 1U) != 0;
  }
  void insert(std::uint64_t seq) {
    const std::uint64_t word = seq >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= std::uint64_t{1} << (seq & 63);
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Message kinds, indexed like MessageBody's alternatives.
inline constexpr std::size_t kMessageKindCount =
    std::variant_size_v<MessageBody>;

/// Human-readable tag of kind `index` ("heartbeat", "flow-mod", ...).
const std::string& message_kind_name(std::size_t index);

/// Human-readable tag for traces ("heartbeat", "flow-mod", ...).
inline const std::string& message_kind(const Message& m) {
  return message_kind_name(m.body.index());
}

}  // namespace pm::ctrl
