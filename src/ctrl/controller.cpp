#include "ctrl/controller.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"

namespace pm::ctrl {

namespace {

/// Bucket bounds (ms) for wave convergence: a clean wave converges in
/// hundreds of ms on ATT; loss and backoff stretch it toward seconds.
std::vector<double> convergence_buckets() {
  return {100, 250, 500, 1000, 2000, 3000, 5000, 10000, 20000};
}

}  // namespace

ControllerNode::ControllerNode(const sdwan::Network& net,
                               sdwan::ControllerId id,
                               ControlChannel& channel,
                               sim::EventQueue& queue,
                               SharedRecoveryState& shared,
                               RecoveryPolicy policy,
                               ControllerConfig config)
    : net_(&net),
      id_(id),
      channel_(&channel),
      queue_(&queue),
      shared_(&shared),
      policy_(std::move(policy)),
      config_(config) {
  const auto switches = static_cast<std::size_t>(net.switch_count());
  const auto controllers = static_cast<std::size_t>(net.controller_count());
  if (shared.requests.size() < switches) shared.requests.resize(switches);
  if (shared.suspicions.size() < controllers) {
    shared.suspicions.resize(controllers);
  }
  last_heard_.assign(controllers, 0.0);
  next_beat_.assign(controllers, 0);
  miss_counts_.assign(controllers, 0);
}

void ControllerNode::start() {
  alive_ = true;
  channel_->attach(controller_endpoint(*net_, id_),
                   net_->controller(id_).location,
                   [this](const Message& m) { on_message(m); });
  for (sdwan::ControllerId j = 0; j < net_->controller_count(); ++j) {
    if (j != id_) last_heard_[static_cast<std::size_t>(j)] = queue_->now();
  }
  beat();
  queue_->schedule_in(kDetectionTimeoutMs, [this] { check_peers(); });
}

void ControllerNode::fail() {
  alive_ = false;
  channel_->detach(controller_endpoint(*net_, id_));
}

void ControllerNode::beat() {
  if (!alive_) return;
  for (sdwan::ControllerId j = 0; j < net_->controller_count(); ++j) {
    if (j == id_) continue;
    Message m;
    m.from = controller_endpoint(*net_, id_);
    m.to = controller_endpoint(*net_, j);
    m.body = Heartbeat{id_, sequence_};
    channel_->send(std::move(m));
  }
  ++sequence_;
  queue_->schedule_in(kHeartbeatIntervalMs, [this] { beat(); });
}

void ControllerNode::check_peers() {
  if (!alive_) return;
  const double now = queue_->now();
  std::set<sdwan::ControllerId>& suspected =
      shared_->suspicions[static_cast<std::size_t>(id_)];
  for (sdwan::ControllerId peer = 0; peer < net_->controller_count();
       ++peer) {
    if (peer == id_ || suspected.contains(peer)) continue;
    const auto p = static_cast<std::size_t>(peer);
    const double heard = last_heard_[p];
    // Hysteresis: one late check is not proof of death when the channel
    // jitters — require `suspicion_checks` consecutive misses.
    if (now - heard > kDetectionTimeoutMs) {
      if (++miss_counts_[p] >= std::max(config_.suspicion_checks, 1)) {
        suspected.insert(peer);
        if (first_detection_at_ < 0) first_detection_at_ = now;
        if (obs::Context* obs = channel_->observability();
            obs != nullptr && obs->tracer.enabled()) {
          obs->tracer.instant(now, "detector", "suspect",
                              tracks::controller(id_),
                              {{"peer", static_cast<int>(peer)},
                               {"silent_ms", now - heard}});
        }
      }
    } else {
      miss_counts_[p] = 0;
    }
  }
  // Every detector checks at the same instants; confirm after all of
  // this instant's checks have run, so the vote sees them.
  if (suspected.size() > confirmed_.size()) {
    queue_->schedule_in(0.0, [this] { confirm_suspicions(); });
  }
  queue_->schedule_in(kHeartbeatIntervalMs, [this] { check_peers(); });
}

void ControllerNode::confirm_suspicions() {
  if (!alive_) return;
  const std::set<sdwan::ControllerId>& suspected = this->suspected();
  bool newly_confirmed = false;
  for (const sdwan::ControllerId peer : suspected) {
    if (confirmed_.contains(peer)) continue;
    // Voters: this node and every controller it does not suspect.
    int voters = 1;
    int agree = 1;
    for (sdwan::ControllerId j = 0; j < net_->controller_count(); ++j) {
      if (j == id_ || suspected.contains(j)) continue;
      ++voters;
      if (shared_->suspicions[static_cast<std::size_t>(j)].contains(peer)) {
        ++agree;
      }
    }
    if (2 * agree > voters) {
      confirmed_.insert(peer);
      newly_confirmed = true;
    }
  }
  if (!newly_confirmed) return;
  // Coordinator: the lowest-id controller not confirmed dead.
  sdwan::ControllerId coordinator = 0;
  while (confirmed_.contains(coordinator)) ++coordinator;
  if (coordinator == id_) run_recovery();
}

void ControllerNode::run_recovery() {
  sdwan::FailureScenario scenario;
  scenario.failed.assign(confirmed_.begin(), confirmed_.end());
  const sdwan::FailureState state(*net_, scenario);
  // Seed the policy with the shared store's last distributed plan, so
  // every wave — a successor coordinator's included — replans
  // incrementally.
  core::RecoveryPlan plan = policy_(
      state, shared_->last_plan ? &*shared_->last_plan : nullptr);
  ++recoveries_run_;
  const double now = queue_->now();
  obs::Context* obs = channel_->observability();
  if (shared_->preparing()) {
    // The previous wave never committed; this wave supersedes it (its
    // epoch bump retires every in-flight message and timer).
    ++shared_->waves_aborted;
    if (obs != nullptr && obs->tracer.enabled()) {
      obs->tracer.instant(
          now, "wave", "wave.abort", tracks::kWaves,
          {{"epoch", static_cast<std::int64_t>(shared_->wave_epoch)},
           {"pending_replies",
            static_cast<std::int64_t>(shared_->pending_replies)}});
    }
  }
  if (shared_->coordinator >= 0 && shared_->coordinator != id_ &&
      confirmed_.contains(shared_->coordinator)) {
    ++shared_->coordinator_failovers;
    if (obs != nullptr && obs->tracer.enabled()) {
      obs->tracer.instant(
          now, "wave", "coordinator.failover", tracks::controller(id_),
          {{"dead_coordinator", static_cast<int>(shared_->coordinator)},
           {"successor", static_cast<int>(id_)}});
    }
  }
  // The previous wave's records, swapped for empty ones: a switch with a
  // sender there was sent a slice (delivered or still in flight), and
  // only such switches can hold entries.
  const std::vector<SwitchRequest> previous = std::exchange(
      shared_->requests,
      std::vector<SwitchRequest>(shared_->requests.size()));
  shared_->coordinator = id_;
  ++shared_->wave_epoch;
  shared_->converged_at = -1.0;
  shared_->pending_replies = 0;
  shared_->wave_started_at = now;
  if (obs != nullptr && obs->tracer.enabled()) {
    obs->tracer.instant(
        now, "wave", "wave.start", tracks::kWaves,
        {{"coordinator", static_cast<int>(id_)},
         {"epoch", static_cast<std::int64_t>(shared_->wave_epoch)},
         {"failed", static_cast<std::int64_t>(confirmed_.size())},
         {"mapped_switches", static_cast<std::int64_t>(plan.mapping.size())},
         {"sdn_assignments",
          static_cast<std::int64_t>(plan.sdn_assignments.size())}});
  }

  // Distribute: one RoleRequest per mapped switch, carrying its slice.
  // The switch's mapped master sends it, relaying any per-flow
  // controllers of a middle-layer plan (PG) at the plan's middle-layer
  // cost. As a modeling simplification the coordinator instructs peers
  // instantly through the synchronized data store (the paper's
  // controllers share a logically centralized view), so each request
  // originates at its sender's endpoint. A mapped master that died
  // before its death was detected cannot send: this node sends instead.
  // Assignments and mapping both ascend by switch, so one cursor walks
  // each switch's assignments.
  auto k = plan.sdn_assignments.begin();
  for (const auto& [sw, planned] : plan.mapping) {
    while (k != plan.sdn_assignments.end() && k->sw < sw) ++k;
    std::vector<sdwan::FlowEntry> entries;
    for (; k != plan.sdn_assignments.end() && k->sw == sw; ++k) {
      const auto& f = net_->flow(k->flow);
      // The entry pins the flow at this switch to its current next hop
      // (programmability = the controller can now change it); none at
      // the path's last node.
      for (std::size_t i = 0; i + 1 < f.path.size(); ++i) {
        if (f.path[i] == sw) {
          entries.push_back({10, {f.src, f.dst}, f.path[i + 1]});
          break;
        }
      }
    }
    send_slice(sw, live_or_self(planned), std::move(entries),
               plan.middle_layer_ms,
               previous[static_cast<std::size_t>(sw)].sender >= 0);
  }
  // Sweep: an empty slice from this node to every switch an earlier wave
  // reached that the new plan leaves out.
  for (std::size_t sw = 0; sw < previous.size(); ++sw) {
    if (previous[sw].sender >= 0 && shared_->requests[sw].sender < 0) {
      send_slice(static_cast<sdwan::SwitchId>(sw), id_, {}, 0.0, true);
    }
  }
  shared_->last_plan = std::move(plan);
  maybe_mark_converged();
}

sdwan::ControllerId ControllerNode::live_or_self(
    sdwan::ControllerId j) const {
  return channel_->is_attached(controller_endpoint(*net_, j)) ? j : id_;
}

void ControllerNode::send_slice(sdwan::SwitchId sw,
                                sdwan::ControllerId sender,
                                std::vector<sdwan::FlowEntry> entries,
                                double extra, bool persistent) {
  SwitchRequest& r = shared_->requests[static_cast<std::size_t>(sw)];
  r.sender = sender;
  r.pending = true;
  r.msg.from = controller_endpoint(*net_, sender);
  r.msg.to = switch_endpoint(sw);
  r.msg.body = RoleRequest{sender, shared_->wave_epoch, std::move(entries)};
  channel_->send(r.msg, extra);
  r.extra_latency_ms = extra;
  // Worst-case fault-free RTT: request propagation (+ any middle-layer
  // latency) plus the reply's way back, then a safety margin. The first
  // timer can therefore never fire before the fault-free reply arrives —
  // with faults disabled retransmission is exactly never triggered.
  r.rto_ms = 2.0 * channel_->path_delay_ms(r.msg.from, r.msg.to) + extra +
             kRetransmitMarginMs;
  r.persistent = persistent;
  ++shared_->pending_replies;
  queue_->schedule_in(r.rto_ms, [this, sw, epoch = shared_->wave_epoch] {
    on_role_timer(sw, epoch);
  });
}

void ControllerNode::on_role_timer(sdwan::SwitchId sw, std::uint64_t epoch) {
  SwitchRequest& r = shared_->requests[static_cast<std::size_t>(sw)];
  if (!alive_ || epoch != shared_->wave_epoch || !r.pending) return;
  if (!channel_->is_attached(r.msg.from) ||
      (r.attempts >= kMaxRetries && !r.persistent)) {
    r.pending = false;
    --shared_->pending_replies;
    shared_->degraded_switches.insert(sw);
    if (obs::Context* obs = channel_->observability();
        obs != nullptr && obs->tracer.enabled()) {
      obs->tracer.instant(queue_->now(), "wave", "degrade.switch",
                          tracks::controller(id_),
                          {{"switch", static_cast<int>(sw)},
                           {"attempts", r.attempts}});
    }
    maybe_mark_converged();
    return;
  }
  // Past kMaxRetries (a persistent request) the timeout stops growing.
  if (r.attempts++ < kMaxRetries) r.rto_ms *= kRetransmitBackoff;
  channel_->resend(r.msg, r.extra_latency_ms);
  queue_->schedule_in(r.rto_ms,
                      [this, sw, epoch] { on_role_timer(sw, epoch); });
}

void ControllerNode::maybe_mark_converged() {
  if (shared_->preparing() && shared_->pending_replies == 0) {
    shared_->converged_at = queue_->now();
    // Commit: the last reply landed, the distributed plan is now the data
    // plane's truth.
    shared_->committed_epoch = shared_->wave_epoch;
    if (shared_->last_plan) shared_->committed_plan = shared_->last_plan;
    if (obs::Context* obs = channel_->observability();
        obs != nullptr) {
      const double wave_ms =
          shared_->converged_at - shared_->wave_started_at;
      obs->metrics
          .histogram("pm_wave_convergence_ms",
                     "Recovery-wave start-to-last-reply time "
                     "(simulated clock)",
                     convergence_buckets())
          .observe(wave_ms);
      if (obs->tracer.enabled()) {
        obs->tracer.complete(
            shared_->wave_started_at, wave_ms, "wave", "wave",
            tracks::kWaves,
            {{"epoch", static_cast<std::int64_t>(shared_->wave_epoch)}});
        obs->tracer.instant(
            queue_->now(), "wave", "wave.converged", tracks::kWaves,
            {{"epoch", static_cast<std::int64_t>(shared_->wave_epoch)},
             {"wave_ms", wave_ms}});
      }
    }
  }
}

void ControllerNode::on_message(const Message& m) {
  if (!alive_) return;
  if (const auto* hb = std::get_if<Heartbeat>(&m.body)) {
    const auto p = static_cast<std::size_t>(hb->from);
    if (hb->sequence < next_beat_[p]) {
      // A channel copy of a beat already heard, or one overtaken by a
      // newer beat: it says nothing newer about the peer's liveness.
      ++duplicates_suppressed_;
      return;
    }
    next_beat_[p] = hb->sequence + 1;
    last_heard_[p] = queue_->now();
    miss_counts_[p] = 0;
    std::set<sdwan::ControllerId>& suspected =
        shared_->suspicions[static_cast<std::size_t>(id_)];
    confirmed_.erase(hb->from);
    if (suspected.erase(hb->from) > 0) {
      // The peer was alive all along — the detector fired on jitter or
      // loss. Count it; the next detector pass sees the peer live again.
      ++spurious_detections_;
      if (obs::Context* obs = channel_->observability();
          obs != nullptr && obs->tracer.enabled()) {
        obs->tracer.instant(queue_->now(), "detector", "unsuspect",
                            tracks::controller(id_),
                            {{"peer", static_cast<int>(hb->from)},
                             {"spurious", true}});
      }
    }
    return;
  }
  // A RoleReply passes no duplicate filter: applying one twice is a
  // no-op (the epoch check and the pending flag absorb the copy).
  if (const auto* reply = std::get_if<RoleReply>(&m.body)) {
    if (reply->epoch != shared_->wave_epoch) {
      // Reply to a superseded wave's RoleRequest; the current wave's
      // own request/retry will collect its own reply.
      ++shared_->stale_discarded;
      return;
    }
    bool& pending =
        shared_->requests[static_cast<std::size_t>(reply->sw)].pending;
    if (pending) {
      pending = false;
      --shared_->pending_replies;
    }
    // A late reply (after the request degraded) un-degrades the switch.
    shared_->degraded_switches.erase(reply->sw);
    maybe_mark_converged();
  }
}

}  // namespace pm::ctrl
