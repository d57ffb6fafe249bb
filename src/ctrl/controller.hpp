// Controller-side protocol agent.
//
// Every live controller beacons heartbeats to its peers and runs a
// timeout-based failure detector over them, publishing its suspicions in
// the shared store. A suspicion is *confirmed* once a strict majority of
// the controllers its holder does not suspect (the holder included)
// suspect the peer too, so one detector starved by loss cannot replan a
// live peer away. When a peer is confirmed, the lowest-id controller not
// confirmed dead acts as recovery coordinator: it derives the
// FailureState for the cumulative confirmed set, asks the pluggable
// RecoveryPolicy for a plan (seeding it with the previous plan, so
// successive failures are handled incrementally), and distributes the
// plan as one RoleRequest per mapped switch, carrying that switch's
// whole SDN slice, over the control channel with real propagation
// delays. The wave commits when every RoleReply is in.
//
// Reliable delivery over a lossy channel:
//  * the failure detector applies hysteresis — a peer is suspected only
//    after `suspicion_checks` consecutive missed deadlines, so delay
//    jitter does not fire it spuriously; a heartbeat from a suspected
//    peer un-suspects it and counts a spurious detection;
//  * each node keeps, per peer, the next heartbeat sequence it expects;
//    a beat below it (a channel copy, or one overtaken by a newer beat)
//    is a duplicate: it refreshes no liveness and un-suspects no one;
//  * the coordinator retransmits each RoleRequest on an RTT-derived
//    timeout with exponential backoff;
//  * a request to a switch that no earlier wave reached degrades after
//    kMaxRetries: the switch is dropped from the wave's pending set (the
//    wave commits instead of wedging) and reported as degraded — the
//    hybrid data plane keeps forwarding its flows over the legacy table;
//  * a request to a switch that an earlier wave reached never gives up
//    while its sender is attached: it keeps resending at its last
//    timeout, because that switch may still hold the old epoch's
//    entries, and committing without its new slice would leave them.
//
// Transactional recovery (epoch-guarded prepare -> commit):
//  * every wave carries a monotonically increasing epoch, stamped into
//    every RoleRequest; switches discard requests from superseded waves
//    and re-reply to a repeat of the current one (see switch_agent.hpp),
//    controllers discard replies from superseded waves;
//  * a wave is PREPARING while replies are outstanding and COMMITS when
//    the last one lands;
//  * a slice replaces the switch's SDN entries (mark and sweep), and
//    every switch the previous wave reached but the new plan leaves out
//    gets an empty slice from the coordinator. By induction that covers
//    every switch that can hold an entry, so commit leaves no entry
//    outside the committed plan and no entry of an older epoch;
//  * if the coordinator dies mid-wave, the surviving lowest-id controller
//    detects it, ABORTS the preparing wave (the epoch bump retires its
//    timers and messages), recomputes the plan against the updated
//    failure set — seeded from the shared store's last distributed plan —
//    and re-runs the wave as the new coordinator;
//  * the epoch is the only thing that retires a superseded wave's work:
//    each retransmission timer carries the epoch it was armed in and
//    does nothing once a newer wave has begun (or its node died), so no
//    timer is ever cancelled;
//  * no controller sends from a dead peer's endpoint: a slice whose
//    mapped master has died (detected or not) is sent by the coordinator,
//    which takes the switch itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "core/recovery_plan.hpp"
#include "ctrl/channel.hpp"
#include "ctrl/switch_agent.hpp"
#include "sim/event_queue.hpp"

namespace pm::ctrl {

/// Computes a plan for the failure state; `previous` is the last plan any
/// coordinator distributed (nullptr on the first failure).
using RecoveryPolicy = std::function<core::RecoveryPlan(
    const sdwan::FailureState&, const core::RecoveryPlan* previous)>;

/// Heartbeat period; the failure detector checks its peers at the same
/// period.
inline constexpr double kHeartbeatIntervalMs = 50.0;
/// A peer silent for longer than this misses its detector deadline.
inline constexpr double kDetectionTimeoutMs = 200.0;
/// Backoff doublings of a RoleRequest's retransmission timeout. A request
/// to a switch no earlier wave reached degrades after this many retries;
/// one to a switch an earlier wave reached keeps resending at the last
/// timeout.
inline constexpr int kMaxRetries = 5;
/// First retransmission fires at RTT-estimate + this margin; each
/// further retry multiplies the timeout by kRetransmitBackoff.
inline constexpr double kRetransmitMarginMs = 60.0;
inline constexpr double kRetransmitBackoff = 2.0;

struct ControllerConfig {
  /// Failure-detector hysteresis: consecutive detector checks a peer
  /// must miss its deadline before it is suspected. 1 = seed behaviour
  /// (suspect on the first late check); raise under jitter/loss.
  int suspicion_checks = 1;
};

/// One switch's RoleRequest in the current recovery wave.
struct SwitchRequest {
  /// Sender of the request (plan mapping, or the coordinator for a
  /// sweep), -1 if the wave sent the switch none. A switch with a sender
  /// has been sent a slice by some wave.
  sdwan::ControllerId sender = -1;
  /// The request awaits its reply.
  bool pending = false;
  /// What a retransmission resends, at the same extra latency.
  Message msg;
  double extra_latency_ms = 0.0;
  int attempts = 0;
  double rto_ms = 0.0;
  /// An earlier wave reached the switch: never degrade while the sender
  /// is attached.
  bool persistent = false;
};

/// The controllers' logically centralized data store (the paper's control
/// plane synchronizes state across controllers): the current recovery
/// wave's requests, shared by every ControllerNode so an adopter's reply
/// completes the coordinator's wave; plus the cumulative degradation
/// record of switches whose requests exhausted their retries.
struct SharedRecoveryState {
  /// Switch-indexed: the current wave's request to the switch.
  std::vector<SwitchRequest> requests;
  /// Replies outstanding in the current wave (requests pending).
  std::size_t pending_replies = 0;
  double converged_at = -1.0;
  /// When the current wave's distribution began (simulated clock); feeds
  /// the wave-convergence histogram and the trace's wave span.
  double wave_started_at = -1.0;
  /// Bumped per recovery wave and stamped into every RoleRequest and
  /// retransmission timer; stale timers and in-flight messages from an
  /// earlier wave observe the mismatch and die.
  std::uint64_t wave_epoch = 0;
  /// Switches whose RoleRequest retries exhausted: left on their legacy
  /// tables until a later wave reaches them (a reply removes them).
  std::set<sdwan::SwitchId> degraded_switches;
  /// Controller-indexed: the peers each failure detector suspects. A
  /// dead controller's entry keeps what it suspected when it died.
  std::vector<std::set<sdwan::ControllerId>> suspicions;

  // --- Transaction state (prepare -> commit) ----------------------------
  /// Controller coordinating the current/last wave.
  sdwan::ControllerId coordinator = -1;
  /// Plan of the wave being prepared (the coordinator-failover seed) and
  /// the last plan whose wave fully committed.
  std::optional<core::RecoveryPlan> last_plan;
  std::optional<core::RecoveryPlan> committed_plan;
  std::uint64_t committed_epoch = 0;

  /// The current wave was distributed and has not committed yet (replies
  /// outstanding). No wave has run while both epochs are 0.
  bool preparing() const { return committed_epoch < wave_epoch; }

  // --- Transaction counters (published as metrics) ----------------------
  /// Replies discarded at controllers for an epoch mismatch.
  std::uint64_t stale_discarded = 0;
  /// Waves superseded while still preparing.
  std::uint64_t waves_aborted = 0;
  /// Times a new coordinator took over a dead one's preparing wave.
  std::uint64_t coordinator_failovers = 0;
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

  /// Controllers this node's detector currently suspects.
  const std::set<sdwan::ControllerId>& suspected() const {
    return shared_->suspicions[static_cast<std::size_t>(id_)];
  }

  /// Time the detector first fired (relative to the queue clock); -1 if
  /// it never fired.
  double first_detection_at() const { return first_detection_at_; }

  /// When the latest recovery wave finished (every reply in);
  /// -1 while not converged. Shared across controllers.
  double converged_at() const { return shared_->converged_at; }

  std::uint64_t recoveries_run() const { return recoveries_run_; }

  /// Times this node suspected a peer that later proved alive (its
  /// heartbeat came through after the detector fired).
  std::uint64_t spurious_detections() const {
    return spurious_detections_;
  }

  /// Heartbeats not newer than the last one heard from their sender
  /// (channel copies, or beats overtaken by a newer one), ignored.
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }

 private:
  void on_message(const Message& m);
  void beat();
  void check_peers();
  /// Confirms the suspicions a majority shares (run once every detector
  /// of the instant has checked) and, if that confirms a peer and this
  /// node is the coordinator, runs a recovery wave.
  void confirm_suspicions();
  void run_recovery();
  /// `j` while its endpoint is attached, else this node: a live peer
  /// never speaks from a dead controller's endpoint, it takes charge of
  /// the dead one's switches itself (the graceful-restart helper role).
  sdwan::ControllerId live_or_self(sdwan::ControllerId j) const;
  /// Sends `sw` its slice from `sender`, records the request pending in
  /// the current wave and arms the retransmission timer. A wave calls it
  /// at most once per switch and retries resend the same message, so
  /// every request a switch sees at one epoch is the same
  /// (switch_agent.hpp).
  void send_slice(sdwan::SwitchId sw, sdwan::ControllerId sender,
                  std::vector<sdwan::FlowEntry> entries, double extra,
                  bool persistent);
  /// Retransmission timer of `sw`'s request, armed in wave `epoch`: a
  /// no-op once this node died, a newer wave began or the reply landed.
  void on_role_timer(sdwan::SwitchId sw, std::uint64_t epoch);
  void maybe_mark_converged();

  const sdwan::Network* net_;
  sdwan::ControllerId id_;
  ControlChannel* channel_;
  sim::EventQueue* queue_;
  SharedRecoveryState* shared_;
  RecoveryPolicy policy_;
  ControllerConfig config_;

  bool alive_ = false;
  std::uint64_t sequence_ = 0;
  /// Peer-indexed detector state (this node's own entries unused):
  /// when the peer's newest beat arrived, and the sequence a beat must
  /// reach to count as newer.
  std::vector<double> last_heard_;
  std::vector<std::uint64_t> next_beat_;
  std::vector<int> miss_counts_;
  /// Suspected peers a majority has confirmed; the failed set waves are
  /// planned for.
  std::set<sdwan::ControllerId> confirmed_;
  double first_detection_at_ = -1.0;
  std::uint64_t spurious_detections_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;

  std::uint64_t recoveries_run_ = 0;
};

}  // namespace pm::ctrl
