// Harness wiring the protocol together: dataplane + switch agents +
// controller nodes over one channel and event queue. Scenarios inject
// controller crashes at chosen times — and, optionally, a channel fault
// model (loss/duplication/jitter/reordering/partitions) — the harness
// runs the clock and reports detection/convergence times, message and
// fault counts, and a final data-plane audit (every flow still
// deliverable; recovered flows carry their SDN entries; degraded flows
// called out explicitly).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/audit.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/fault_model.hpp"
#include "ctrl/switch_agent.hpp"
#include "obs/obs.hpp"
#include "sdwan/dataplane.hpp"

namespace pm::ctrl {

struct SimulationReport {
  /// First failure-detector firing across surviving controllers;
  /// nullopt when the detector never fired.
  std::optional<double> detected_at;
  /// Last recovery wave fully acked (committed); nullopt while not
  /// converged.
  std::optional<double> converged_at;
  std::uint64_t messages_sent = 0;
  std::map<std::string, std::uint64_t> messages_by_kind;
  /// Recovery waves run by coordinators (>= number of failure events).
  std::uint64_t recovery_waves = 0;
  /// Flows whose SDN entries are installed in the data plane.
  std::size_t flows_with_entries = 0;
  /// Data-plane audit: all 600 flows still delivered end-to-end.
  bool all_flows_deliverable = false;
  /// Switches adopted by a new master.
  std::size_t adopted_switches = 0;

  // --- Reliable delivery under channel faults ---------------------------
  /// Ack-driven retransmissions performed (RoleRequest + FlowMod).
  std::uint64_t retransmissions = 0;
  /// Received messages suppressed as duplicates (switches+controllers).
  std::uint64_t duplicates_suppressed = 0;
  /// Peers suspected and later proven alive, summed over controllers.
  std::uint64_t spurious_detections = 0;
  /// Flows whose FlowMod retries exhausted (legacy-forwarded, reported
  /// instead of wedging the wave).
  std::size_t degraded_flows = 0;
  /// Switches whose RoleRequest retries exhausted (left orphaned).
  std::size_t degraded_switches = 0;
  /// Channel-injected faults (zero when no fault model is armed).
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t reordered_messages = 0;
  std::uint64_t partition_drops = 0;

  // --- Transactional recovery -------------------------------------------
  /// Stale-epoch messages discarded (switch agents + controllers).
  std::uint64_t stale_discarded = 0;
  /// Compensating removal FlowMods sent by rollback.
  std::uint64_t rollback_removals = 0;
  /// Waves superseded while still preparing.
  std::uint64_t waves_aborted = 0;
  /// Times a successor coordinator took over a dead one's wave.
  std::uint64_t coordinator_failovers = 0;
  /// Post-run consistency-audit violations (0 = clean).
  std::size_t audit_violations = 0;
  bool audit_clean = true;
};

class ControlSimulation {
 public:
  ControlSimulation(const sdwan::Network& net, RecoveryPolicy policy,
                    ControllerConfig config = {});

  /// Schedules controller `j` to crash at time `at_ms`. Every switch it
  /// currently masters — original domain plus mid-wave adoptions — is
  /// orphaned at the same instant (their OpenFlow sessions drop).
  void fail_controller_at(sdwan::ControllerId j, double at_ms);

  /// Arms the channel fault model. Call before run(); an inert model
  /// keeps the exact fault-free behaviour.
  void set_fault_model(const ChannelFaultModel& model) {
    channel_.set_fault_model(model);
  }

  /// Runs the clock until `until_ms` and produces the report.
  ///
  /// The report is a *view over the metrics registry*: run() first
  /// publishes every counter into observability().metrics, then reads
  /// the report fields back out of the registry — so the report and any
  /// exported metrics file can never disagree.
  SimulationReport run(double until_ms);

  /// The simulation-owned observability context. Enable the tracer
  /// before run() to record control-plane events; export with
  /// obs::write_outputs() afterwards. Left alone, both sinks are null
  /// (tracer disabled, metrics only filled at the end of run()).
  obs::Context& observability() { return obs_; }
  const obs::Context& observability() const { return obs_; }

  const sdwan::Dataplane& dataplane() const { return dataplane_; }
  ControlChannel& channel() { return channel_; }
  const ControlChannel& channel() const { return channel_; }
  const ControllerNode& controller(sdwan::ControllerId j) const {
    return *controllers_.at(static_cast<std::size_t>(j));
  }
  const SwitchAgent& switch_agent(sdwan::SwitchId s) const {
    return *switches_.at(static_cast<std::size_t>(s));
  }
  sim::EventQueue& queue() { return queue_; }

  /// The shared recovery store (transaction phase, committed plan/epoch,
  /// degradation records) — read-only, for tests and audits.
  const SharedRecoveryState& shared_state() const { return shared_; }

  /// Post-run consistency audit (recomputed on call): checks the data
  /// plane + agents against the committed plan and epoch. run() also
  /// performs it and publishes the result as metrics.
  AuditReport audit() const;

 private:
  /// Publishes channel/controller/queue counters and the data-plane
  /// audit into the metrics registry (counters monotonic, gauges
  /// overwritten).
  void publish_metrics();
  /// Builds the report purely from registry values.
  SimulationReport report_from_metrics() const;

  const sdwan::Network* net_;
  obs::Context obs_;
  sim::EventQueue queue_;
  ControlChannel channel_;
  sdwan::Dataplane dataplane_;
  SharedRecoveryState shared_;
  std::vector<std::unique_ptr<SwitchAgent>> switches_;
  std::vector<std::unique_ptr<ControllerNode>> controllers_;
};

}  // namespace pm::ctrl
