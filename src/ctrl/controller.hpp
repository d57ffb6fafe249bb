// Controller-side protocol agent.
//
// Every live controller beacons heartbeats to its peers and runs a
// timeout-based failure detector over them. When the detector fires, the
// lowest-id live controller acts as recovery coordinator: it derives the
// FailureState for the cumulative failed set, asks the pluggable
// RecoveryPolicy for a plan (seeding it with the previous plan, so
// successive failures are handled incrementally), and distributes the
// plan — RoleRequests to adopted switches followed by one FlowMod per SDN
// assignment, all over the control channel with real propagation delays.
// Convergence is tracked through the switches' acks.
//
// Reliable delivery over a lossy channel:
//  * the failure detector applies hysteresis — a peer is suspected only
//    after `suspicion_checks` consecutive missed deadlines, so delay
//    jitter does not fire it spuriously; a heartbeat from a suspected
//    peer un-suspects it and counts a spurious detection;
//  * RoleRequests and FlowMods are retransmitted by the coordinator on an
//    RTT-derived timeout with exponential backoff, up to `max_retries`;
//  * a message whose retries exhaust degrades gracefully: its xid/switch
//    is dropped from the wave's pending set (the wave converges instead
//    of wedging) and the flow/switch is reported as degraded — the
//    hybrid data plane keeps forwarding it over the legacy/OSPF table.
//
// Transactional recovery (epoch-guarded prepare -> commit):
//  * every wave carries a monotonically increasing epoch, stamped into
//    all RoleRequests/FlowMods; switches and controllers discard stale
//    messages from superseded waves (see switch_agent.hpp);
//  * a wave is PREPARING while acks are outstanding and COMMITS when the
//    last ack lands; the coordinator's distribution also removes entries
//    the previous committed plan installed but the new plan dropped, so
//    commit leaves no entry outside the committed plan;
//  * if a mod's retries exhaust, its flow is *rolled back*: sibling
//    installs are cancelled, already-installed entries are removed, and
//    the flow falls back to legacy routing — degradation means "legacy",
//    never "half programmed";
//  * if the coordinator dies mid-wave, the surviving lowest-id controller
//    detects it, ABORTS the preparing wave (epoch bump kills its timers
//    and messages), recomputes the plan against the updated failure set —
//    seeded from the shared store's last distributed plan — and re-runs
//    the wave as the new coordinator;
//  * no controller sends from a dead peer's endpoint: when a planned
//    adopter or a switch's wave master has died (detected or not), the
//    live sender adopts the switch itself before installing or removing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/recovery_plan.hpp"
#include "ctrl/channel.hpp"
#include "ctrl/switch_agent.hpp"
#include "sim/event_queue.hpp"
#include "util/flat_map.hpp"

namespace pm::ctrl {

/// Computes a plan for the failure state; `previous` is the last plan the
/// coordinator installed (nullptr on the first failure).
using RecoveryPolicy = std::function<core::RecoveryPlan(
    const sdwan::FailureState&, const core::RecoveryPlan* previous)>;

struct ControllerConfig {
  double heartbeat_interval_ms = 50.0;
  double detection_timeout_ms = 200.0;
  /// Failure-detector hysteresis: consecutive detector checks a peer
  /// must miss its deadline before it is suspected. 1 = seed behaviour
  /// (suspect on the first late check); raise under jitter/loss.
  int suspicion_checks = 1;
  /// Retry cap for RoleRequest/FlowMod retransmission; a message still
  /// unacked after this many retries degrades instead of wedging the
  /// wave. 0 disables retransmission entirely.
  int max_retries = 5;
  /// First retransmission fires at RTT-estimate + this margin; each
  /// further retry multiplies the timeout by `retransmit_backoff`.
  double retransmit_margin_ms = 60.0;
  double retransmit_backoff = 2.0;
};

/// Lifecycle of one recovery wave through the shared store.
enum class WavePhase {
  kIdle,       ///< no wave has run yet
  kPreparing,  ///< plan distributed, acks outstanding
  kCommitted,  ///< last ack landed; plan is the data plane's truth
  kAborted,    ///< superseded mid-prepare (new failure / coordinator death)
};

/// Outstanding work one adopting controller owes the current wave. The
/// wave "prepares" per adopter; a slice whose counts drain is prepared,
/// and the wave commits when every slice is.
struct AdopterSlice {
  /// Whether the current wave has given this controller any work.
  bool active = false;
  /// Switches whose RoleRequest (sent by this adopter) awaits a reply.
  std::size_t pending_roles = 0;
  /// FlowMods (sent by this adopter) whose ack is outstanding.
  std::size_t pending_acks = 0;
  bool prepared = false;
};

/// What one outstanding (or completed) FlowMod was for.
struct ModRecord {
  sdwan::FlowId flow = -1;
  sdwan::SwitchId sw = -1;
  sdwan::ControllerId adopter = -1;
  bool remove = false;
  /// The ack is outstanding in the current wave.
  bool pending = false;
};

/// An acked install: (switch, flow) and the epoch that installed it.
using InstalledEntries =
    util::FlatMap<std::pair<sdwan::SwitchId, sdwan::FlowId>, std::uint64_t>;

/// The controllers' logically centralized data store (the paper's control
/// plane synchronizes state across controllers): outstanding flow-mod
/// acks and role replies of the current recovery wave, shared by every
/// ControllerNode so an adopter's ack completes the coordinator's wave;
/// plus the cumulative degradation record of messages that exhausted
/// their retries.
///
/// The per-wave bookkeeping is dense: xid-, switch- and
/// controller-indexed vectors sized by ControllerNode (xid_mods grows
/// with next_xid), with counts kept beside the pending flags.
struct SharedRecoveryState {
  /// Acks outstanding in the current wave: xid_mods[x].pending set.
  std::size_t pending_acks = 0;
  /// Switch-indexed: the switch's RoleRequest awaits its reply.
  std::vector<char> role_pending;
  std::size_t pending_roles = 0;
  std::uint64_t next_xid = 1;
  /// First xid of the current wave; every pending ack is at or above it.
  std::uint64_t wave_first_xid = 1;
  double converged_at = -1.0;
  bool wave_active = false;
  /// When the current wave's distribution began (simulated clock); feeds
  /// the wave-convergence histogram and the trace's wave span.
  double wave_started_at = -1.0;
  /// Bumped per recovery wave and stamped into every protocol message;
  /// stale retransmission timers and in-flight messages from an earlier
  /// wave observe the mismatch and die.
  std::uint64_t wave_epoch = 0;
  /// Xid-indexed (xid 0 unused): what each FlowMod was for, cumulative
  /// across waves so a stale ack can still be attributed for
  /// compensation.
  std::vector<ModRecord> xid_mods;
  /// Flows whose FlowMod retries exhausted: forwarded legacy-only until
  /// a later wave re-programs them (an ack removes the flow again).
  std::set<sdwan::FlowId> degraded_flows;
  /// Switches whose RoleRequest retries exhausted: left orphaned on
  /// their legacy tables until a later wave re-adopts them.
  std::set<sdwan::SwitchId> degraded_switches;

  // --- Transaction state (prepare -> commit -> rollback) ----------------
  WavePhase phase = WavePhase::kIdle;
  /// Controller coordinating the current/last wave.
  sdwan::ControllerId coordinator = -1;
  /// Controller-indexed outstanding work of the current wave.
  std::vector<AdopterSlice> slices;
  /// Acked installs the control plane believes are in the data plane,
  /// in (switch, flow) order. Removal acks erase; this is the rollback
  /// worklist when a plan drops assignments or a flow degrades.
  InstalledEntries installed;
  /// Switch-indexed master given in the current wave (plan mapping plus
  /// cleanup adoptions), -1 if none; removals are sent from it.
  std::vector<sdwan::ControllerId> wave_masters;
  /// Flows rolled back in the current wave: their pending installs were
  /// cancelled and their entries removed; a late install-ack triggers a
  /// compensating removal instead of un-degrading the flow.
  std::set<sdwan::FlowId> rolled_back_flows;
  /// (switch, flow) keys a removal was already sent for in the current
  /// wave — plan-diff cleanup, handover resync and flow rollback can
  /// each target the same entry; one removal suffices.
  std::set<std::pair<sdwan::SwitchId, sdwan::FlowId>> pending_removals;
  /// Plan of the wave being prepared (the coordinator-failover seed) and
  /// the last plan whose wave fully committed.
  std::optional<core::RecoveryPlan> last_plan;
  std::optional<core::RecoveryPlan> committed_plan;
  std::uint64_t committed_epoch = 0;

  // --- Transaction counters (published as metrics) ----------------------
  /// Acks/replies discarded at controllers for an epoch mismatch.
  std::uint64_t stale_discarded = 0;
  /// Compensating removal FlowMods sent (plan-diff + flow rollback).
  std::uint64_t rollback_removals = 0;
  /// Waves superseded while still preparing.
  std::uint64_t waves_aborted = 0;
  /// Times a new coordinator took over a dead one's preparing wave.
  std::uint64_t coordinator_failovers = 0;
  /// Rollback removals whose own retries exhausted (entry may linger).
  std::uint64_t rollback_failures = 0;
};

class ControllerNode {
 public:
  ControllerNode(const sdwan::Network& net, sdwan::ControllerId id,
                 ControlChannel& channel, sim::EventQueue& queue,
                 SharedRecoveryState& shared, RecoveryPolicy policy,
                 ControllerConfig config);

  sdwan::ControllerId id() const { return id_; }
  bool alive() const { return alive_; }

  /// Attach to the channel and start heartbeating/detecting.
  void start();

  /// Crash: stop heartbeats, detach from the channel. (Silent — peers
  /// find out via the detector.)
  void fail();

  /// Controllers this node currently believes dead.
  const std::set<sdwan::ControllerId>& suspected() const {
    return suspected_;
  }

  /// Time the detector first fired (relative to the queue clock); -1 if
  /// it never fired.
  double first_detection_at() const { return first_detection_at_; }

  /// When the latest recovery wave finished (every flow-mod acked);
  /// -1 while not converged. Shared across controllers.
  double converged_at() const { return shared_->converged_at; }

  /// The plan this node last installed as coordinator (if any).
  const std::optional<core::RecoveryPlan>& installed_plan() const {
    return installed_plan_;
  }

  std::uint64_t recoveries_run() const { return recoveries_run_; }

  /// Times this node suspected a peer that later proved alive (its
  /// heartbeat came through after the detector fired).
  std::uint64_t spurious_detections() const {
    return spurious_detections_;
  }

  /// Received messages whose seq was already processed (channel
  /// duplicates / redundant retransmissions), suppressed.
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }

 private:
  /// One unacked reliable message awaiting retransmission.
  struct Retry {
    Message msg;
    double extra_latency_ms = 0.0;
    int attempts = 0;
    double rto_ms = 0.0;
    std::uint64_t epoch = 0;
    sim::EventId timer = 0;
  };
  /// A FlowMod's retry, keyed by xid. `live` is cleared when the retry
  /// ends; the entry stays (xid kept for the search) until a sweep.
  struct ModRetry {
    std::uint64_t xid = 0;
    bool live = false;
    Retry retry;
  };

  void on_message(const Message& m);
  void beat();
  void check_peers();
  void run_recovery();
  /// Roll one flow back to legacy routing: cancel its pending installs,
  /// remove its acked entries, and remember it so late acks compensate.
  void roll_back_flow(sdwan::FlowId flow);
  /// Send (and track) a removal FlowMod for one installed entry, adopting
  /// the switch under this node first if no live wave master holds it.
  /// De-duplicated per wave via SharedRecoveryState::pending_removals.
  void send_rollback_remove(sdwan::SwitchId sw, sdwan::FlowId flow);
  /// `j` while its endpoint is attached, else this node: a live peer
  /// never speaks from a dead controller's endpoint, it takes charge of
  /// the dead one's switches itself (the graceful-restart helper role).
  sdwan::ControllerId live_or_self(sdwan::ControllerId j) const;
  /// Make this node the switch's wave master: RoleRequest at the current
  /// epoch, tracked and retransmitted like the plan's own.
  void adopt_switch(sdwan::SwitchId sw);
  /// Record a RoleRequest to `sw` from `adopter` as pending in the
  /// current wave, in the switch's and the adopter's books.
  void track_role(sdwan::SwitchId sw, sdwan::ControllerId adopter);
  /// Record a FlowMod as pending in the current wave.
  void track_mod(std::uint64_t xid, const ModRecord& record);
  /// Clear a pending ack/role (no-op if not pending), counts included.
  void clear_pending_ack(std::uint64_t xid);
  void clear_pending_role(sdwan::SwitchId sw);
  /// Re-check completed work's adopter slice; a drained slice is marked
  /// prepared (traced).
  void slice_role_done(sdwan::SwitchId sw);
  void slice_ack_done(std::uint64_t xid);
  void maybe_mark_slice_prepared(sdwan::ControllerId adopter);
  void arm_mod_retry(std::uint64_t xid, Message msg, double extra);
  void arm_role_retry(sdwan::SwitchId sw, Message msg);
  /// First entry of mod_retries_ whose xid is not below `xid`.
  std::vector<ModRetry>::iterator mod_retry_at(std::uint64_t xid);
  /// The live retry of `xid`, or nullptr.
  Retry* find_mod_retry(std::uint64_t xid);
  /// Ends the retry of `xid` (found live by find_mod_retry).
  void end_mod_retry(std::uint64_t xid);
  void on_mod_timer(std::uint64_t xid);
  void on_role_timer(sdwan::SwitchId sw);
  void cancel_wave_timers();
  void clear_retries();
  void maybe_mark_converged();
  double initial_rto(const Message& msg, double extra) const;

  const sdwan::Network* net_;
  sdwan::ControllerId id_;
  ControlChannel* channel_;
  sim::EventQueue* queue_;
  SharedRecoveryState* shared_;
  RecoveryPolicy policy_;
  ControllerConfig config_;

  bool alive_ = false;
  std::uint64_t sequence_ = 0;
  /// Peer-indexed detector state (this node's own entries unused).
  std::vector<double> last_heard_;
  std::vector<int> miss_counts_;
  std::set<sdwan::ControllerId> suspected_;
  double first_detection_at_ = -1.0;
  std::uint64_t spurious_detections_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  SeenSeqs seen_seqs_;

  /// In xid order: xids only grow, so arming appends.
  std::vector<ModRetry> mod_retries_;
  std::size_t ended_mod_retries_ = 0;
  /// Switch-indexed.
  std::vector<std::optional<Retry>> role_retries_;

  std::optional<core::RecoveryPlan> installed_plan_;
  std::uint64_t recoveries_run_ = 0;
};

}  // namespace pm::ctrl
