// The hybrid SDN/legacy switch of Sec. III-A (modeled on the Brocade
// MLX-8 PE): a priority-ordered OpenFlow flow table in front of a
// destination-based legacy routing table, with the packet pipeline of
// Fig. 2:
//   kSdn    — flow table only; a miss drops the packet (table-miss without
//             a fallback entry).
//   kLegacy — legacy routing table only.
//   kHybrid — flow table first; the default low-priority entry sends
//             unmatched packets to the legacy table.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sdwan/ospf.hpp"
#include "sdwan/types.hpp"

namespace pm::sdwan {

enum class RoutingMode { kSdn, kLegacy, kHybrid };

/// What an OpenFlow entry matches on. Wildcards are expressed with
/// kAnyField (-1).
inline constexpr SwitchId kAnyField = -1;

struct FlowMatch {
  SwitchId src = kAnyField;
  SwitchId dst = kAnyField;

  bool matches(SwitchId packet_src, SwitchId packet_dst) const {
    return (src == kAnyField || src == packet_src) &&
           (dst == kAnyField || dst == packet_dst);
  }
};

struct FlowEntry {
  std::int32_t priority = 0;  ///< higher wins.
  FlowMatch match;
  SwitchId next_hop = -1;
  /// Opaque controller tag, as OpenFlow's cookie; the control protocol
  /// stores the recovery epoch that installed the entry.
  std::uint64_t cookie = 0;
};

struct Packet {
  SwitchId src = -1;
  SwitchId dst = -1;
};

/// Result of a pipeline lookup, for observability in tests and demos.
struct LookupResult {
  /// Next hop, or nullopt when the packet is dropped.
  std::optional<SwitchId> next_hop;
  /// True if the decision came from the OpenFlow table (vs legacy).
  bool matched_flow_table = false;
};

class HybridSwitch {
 public:
  HybridSwitch(SwitchId id, RoutingMode mode, LegacyRoutingTable legacy)
      : id_(id), mode_(mode), legacy_(std::move(legacy)) {}

  SwitchId id() const { return id_; }
  RoutingMode mode() const { return mode_; }
  void set_mode(RoutingMode mode) { mode_ = mode; }

  /// Installs an entry; entries are kept sorted by descending priority and
  /// insertion order breaks ties (first-installed wins), as in OpenFlow.
  void install(FlowEntry entry);

  /// Removes all entries whose match equals `match` exactly.
  /// Returns the number removed.
  std::size_t remove(const FlowMatch& match);

  /// Removes every flow-table entry; the legacy table is untouched.
  void clear_flow_table() { flow_table_.clear(); }

  std::size_t flow_table_size() const { return flow_table_.size(); }
  /// The flow table in lookup order (descending priority).
  const std::vector<FlowEntry>& flow_table() const { return flow_table_; }

  const LegacyRoutingTable& legacy_table() const { return legacy_; }
  LegacyRoutingTable& legacy_table() { return legacy_; }

  /// Runs the Fig. 2 pipeline for `packet`.
  LookupResult lookup(const Packet& packet) const;

 private:
  SwitchId id_;
  RoutingMode mode_;
  std::vector<FlowEntry> flow_table_;  // sorted by descending priority
  LegacyRoutingTable legacy_;
};

}  // namespace pm::sdwan
