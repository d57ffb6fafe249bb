// Post-wave consistency auditor for transactional recovery.
//
// After a run, the data plane and switch agents must agree with the last
// COMMITTED plan — whatever crashed, raced or was swept along the way.
// The auditor checks four invariant families:
//
//   orphaned-master  — no switch is mastered by a failed controller;
//   epoch            — no installed entry predates the committed epoch
//                      ("stale-epoch"), and no flow carries entries from
//                      two different epochs ("mixed-epoch");
//   over-capacity    — no active controller's normal + adopted load
//                      exceeds capacity x (1 + 1e-9) under the
//                      committed plan;
//   plan-vs-state    — every committed (switch, flow) assignment on a
//                      non-degraded switch is installed with the path's
//                      next hop ("missing-entry" / "wrong-next-hop"),
//                      the plan's mapping is reflected in the agents'
//                      masters ("wrong-master"), and no entry exists
//                      outside the committed plan ("unplanned-entry").
//
// Degraded switches are exempt from the missing-entry, wrong-next-hop and
// wrong-master checks — their requests exhausted their retries, so they
// legitimately fall back to legacy routing — but NOT from the epoch and
// unplanned-entry checks: a switch keeping an older wave's entries past a
// commit is exactly what the sweep exists to prevent.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/switch_agent.hpp"
#include "sdwan/dataplane.hpp"

namespace pm::ctrl {

struct AuditViolation {
  /// Invariant family: "orphaned-master", "stale-epoch", "mixed-epoch",
  /// "over-capacity", "missing-entry", "wrong-next-hop", "wrong-master",
  /// "unplanned-entry".
  std::string invariant;
  std::string detail;
};

struct AuditReport {
  std::vector<AuditViolation> violations;
  std::size_t switches_checked = 0;
  std::size_t entries_checked = 0;
  std::size_t assignments_checked = 0;

  bool clean() const { return violations.empty(); }
  /// Violation counts per invariant family (for metrics labels).
  std::map<std::string, std::size_t> by_invariant() const;
};

/// Audits the end-of-run state. `agents` is indexed by switch id;
/// `controller_alive[j]` is controller j's liveness. Plan-dependent
/// checks are skipped while no wave has committed.
AuditReport audit_recovery(
    const sdwan::Network& net, const sdwan::Dataplane& dataplane,
    const std::vector<const SwitchAgent*>& agents,
    const std::vector<bool>& controller_alive,
    const SharedRecoveryState& shared);

}  // namespace pm::ctrl
