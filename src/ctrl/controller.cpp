#include "ctrl/controller.hpp"

#include <algorithm>

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
  if (shared.xid_mods.empty()) shared.xid_mods.resize(1);  // xid 0 unused
  if (shared.role_pending.size() < switches) {
    shared.role_pending.resize(switches, 0);
    shared.wave_masters.resize(switches, -1);
  }
  if (shared.suspicions.size() < controllers) {
    shared.suspicions.resize(controllers);
  }
  last_heard_.assign(controllers, 0.0);
  miss_counts_.assign(controllers, 0);
  role_retries_.resize(switches);
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
  cancel_wave_timers();
  clear_retries();
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
  // A new wave supersedes the old one: stale retransmission timers must
  // not resend a superseded plan's messages.
  cancel_wave_timers();
  clear_retries();
  const double now = queue_->now();
  obs::Context* obs = channel_->observability();
  if (shared_->phase == WavePhase::kPreparing) {
    // The previous wave never committed; this wave supersedes it (its
    // epoch bump invalidates every in-flight message and timer).
    ++shared_->waves_aborted;
    shared_->phase = WavePhase::kAborted;
    if (obs != nullptr && obs->tracer.enabled()) {
      obs->tracer.instant(
          now, "wave", "wave.abort", tracks::kWaves,
          {{"epoch", static_cast<std::int64_t>(shared_->wave_epoch)},
           {"pending_acks",
            static_cast<std::int64_t>(shared_->pending_acks)}});
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
  // Switches the superseded wave handed to a controller that has died
  // since: the dead master may have programmed them (or been granted the
  // role by a request still in flight when it died) after its last
  // report, so this wave takes them over and resyncs them even when the
  // new plan leaves them out.
  std::vector<sdwan::SwitchId> dead_mastered;
  for (std::size_t sw = 0; sw < shared_->wave_masters.size(); ++sw) {
    const sdwan::ControllerId master = shared_->wave_masters[sw];
    if (master >= 0 && live_or_self(master) != master) {
      dead_mastered.push_back(static_cast<sdwan::SwitchId>(sw));
    }
  }
  shared_->coordinator = id_;
  ++shared_->wave_epoch;
  shared_->converged_at = -1.0;
  for (std::uint64_t xid = shared_->wave_first_xid; xid < shared_->next_xid;
       ++xid) {
    shared_->xid_mods[xid].pending = false;
  }
  shared_->pending_acks = 0;
  shared_->wave_first_xid = shared_->next_xid;
  std::fill(shared_->role_pending.begin(), shared_->role_pending.end(), 0);
  shared_->wave_started_at = now;
  shared_->phase = WavePhase::kPreparing;
  std::fill(shared_->wave_masters.begin(), shared_->wave_masters.end(), -1);
  shared_->rolled_back_flows.clear();
  shared_->pending_removals.clear();
  if (obs != nullptr && obs->tracer.enabled()) {
    obs->tracer.instant(
        queue_->now(), "wave", "wave.start", tracks::kWaves,
        {{"coordinator", static_cast<int>(id_)},
         {"epoch", static_cast<std::int64_t>(shared_->wave_epoch)},
         {"failed", static_cast<std::int64_t>(confirmed_.size())},
         {"mapped_switches", static_cast<std::int64_t>(plan.mapping.size())},
         {"sdn_assignments",
          static_cast<std::int64_t>(plan.sdn_assignments.size())}});
  }

  // Entries an earlier wave installed that the new plan no longer wants:
  // removed at the end of this wave's distribution (the rollback half of
  // commit — without it a shrinking plan leaves orphan entries behind).
  std::vector<std::pair<sdwan::SwitchId, sdwan::FlowId>> stale_installed;
  for (const auto& [key, epoch] : shared_->installed) {
    if (!plan.has_assignment(key.first, key.second)) {
      stale_installed.push_back(key);
    }
  }

  // Distribute: RoleRequest per adopted switch, then the flow-mods. Every
  // message is sent by the ADOPTING controller in the plan; as a modeling
  // simplification the coordinator instructs peers instantly through the
  // synchronized data store (the paper's controllers share a logically
  // centralized view), so the mods originate at the adopter's endpoint.
  // An adopter that died before its death was detected cannot send: this
  // node adopts its switches instead.
  for (const auto& [sw, planned] : plan.mapping) {
    const sdwan::ControllerId adopter = live_or_self(planned);
    Message role;
    role.from = controller_endpoint(*net_, adopter);
    role.to = switch_endpoint(sw);
    role.body = RoleRequest{adopter, shared_->wave_epoch};
    role.seq = channel_->send(role);
    track_role(sw, adopter);
    arm_role_retry(sw, std::move(role));
  }
  // Cleanup adoptions: a switch holding stale entries but absent from the
  // new mapping needs a master before a removal can be applied (the
  // master check would silently drop it). The coordinator adopts it, as
  // it does the dead masters' switches the new mapping leaves out.
  for (const auto& [sw, flow] : stale_installed) {
    if (shared_->wave_masters[static_cast<std::size_t>(sw)] < 0) {
      adopt_switch(sw);
    }
  }
  for (const sdwan::SwitchId sw : dead_mastered) {
    if (shared_->wave_masters[static_cast<std::size_t>(sw)] < 0) {
      adopt_switch(sw);
    }
  }
  for (std::size_t k = 0; k < plan.sdn_assignments.size(); ++k) {
    const auto [sw, flow] = plan.sdn_assignments[k];
    const sdwan::ControllerId adopter =
        live_or_self(plan.controller_of_assignment(k));
    const auto& f = net_->flow(flow);
    // The entry pins the flow at this switch to its current next hop
    // (programmability = the controller can now change it).
    sdwan::SwitchId next_hop = -1;
    for (std::size_t i = 0; i + 1 < f.path.size(); ++i) {
      if (f.path[i] == sw) {
        next_hop = f.path[i + 1];
        break;
      }
    }
    if (next_hop < 0) continue;  // switch is the path's last node
    Message mod;
    mod.from = controller_endpoint(*net_, adopter);
    mod.to = switch_endpoint(sw);
    FlowMod body;
    body.entry = {10, {f.src, f.dst}, next_hop};
    body.xid = shared_->next_xid++;
    body.epoch = shared_->wave_epoch;
    mod.body = body;
    track_mod(body.xid, {flow, sw, adopter, false});
    mod.seq = channel_->send(mod, plan.middle_layer_ms);
    arm_mod_retry(body.xid, std::move(mod), plan.middle_layer_ms);
  }
  shared_->last_plan = std::move(plan);
  for (const auto& [sw, flow] : stale_installed) {
    send_rollback_remove(sw, flow);
  }
  if (shared_->pending_acks == 0) maybe_mark_converged();
}

sdwan::ControllerId ControllerNode::live_or_self(
    sdwan::ControllerId j) const {
  return channel_->is_attached(controller_endpoint(*net_, j)) ? j : id_;
}

void ControllerNode::adopt_switch(sdwan::SwitchId sw) {
  Message role;
  role.from = controller_endpoint(*net_, id_);
  role.to = switch_endpoint(sw);
  role.body = RoleRequest{id_, shared_->wave_epoch};
  role.seq = channel_->send(role);
  track_role(sw, id_);
  arm_role_retry(sw, std::move(role));
}

void ControllerNode::track_role(sdwan::SwitchId sw,
                                sdwan::ControllerId adopter) {
  const auto s = static_cast<std::size_t>(sw);
  shared_->role_pending[s] = 1;
  shared_->wave_masters[s] = adopter;
}

void ControllerNode::track_mod(std::uint64_t xid, const ModRecord& record) {
  if (xid >= shared_->xid_mods.size()) shared_->xid_mods.resize(xid + 1);
  ModRecord& r = shared_->xid_mods[xid];
  r = record;
  r.pending = true;
  ++shared_->pending_acks;
}

void ControllerNode::clear_pending_ack(std::uint64_t xid) {
  if (xid >= shared_->xid_mods.size()) return;
  ModRecord& r = shared_->xid_mods[xid];
  if (!r.pending) return;
  r.pending = false;
  --shared_->pending_acks;
}

void ControllerNode::send_rollback_remove(sdwan::SwitchId sw,
                                          sdwan::FlowId flow) {
  if (!shared_->pending_removals.insert({sw, flow}).second) return;
  // The removal must come from the switch's current master, or the
  // master check drops it. If no wave touched the switch yet (a mid-wave
  // flow rollback hitting an unmapped switch), or its wave master has
  // died since, this node adopts it first.
  const auto s = static_cast<std::size_t>(sw);
  const sdwan::ControllerId wave_master = shared_->wave_masters[s];
  if (wave_master < 0 || live_or_self(wave_master) != wave_master) {
    adopt_switch(sw);
  }
  const sdwan::ControllerId master = shared_->wave_masters[s];
  const auto& f = net_->flow(flow);
  Message mod;
  mod.from = controller_endpoint(*net_, master);
  mod.to = switch_endpoint(sw);
  FlowMod body;
  body.entry = {10, {f.src, f.dst}, -1};
  body.remove = true;
  body.xid = shared_->next_xid++;
  body.epoch = shared_->wave_epoch;
  mod.body = body;
  track_mod(body.xid, {flow, sw, master, true});
  mod.seq = channel_->send(mod);
  arm_mod_retry(body.xid, std::move(mod), 0.0);
  ++shared_->rollback_removals;
  if (obs::Context* obs = channel_->observability();
      obs != nullptr && obs->tracer.enabled()) {
    obs->tracer.instant(queue_->now(), "wave", "rollback.remove",
                        tracks::controller(id_),
                        {{"switch", static_cast<int>(sw)},
                         {"flow", static_cast<int>(flow)},
                         {"xid", static_cast<std::int64_t>(body.xid)}});
  }
}

void ControllerNode::roll_back_flow(sdwan::FlowId flow) {
  if (!shared_->rolled_back_flows.insert(flow).second) return;
  // Cancel the flow's sibling installs still pending in this wave — the
  // flow is going back to legacy wholesale, a partial install would be
  // exactly the mixed state rollback exists to prevent.
  std::vector<std::uint64_t> cancelled;
  for (const ModRetry& r : mod_retries_) {
    if (!r.live) continue;
    const ModRecord& rec = shared_->xid_mods[r.xid];
    if (!rec.remove && rec.flow == flow && rec.pending) {
      cancelled.push_back(r.xid);
    }
  }
  for (const std::uint64_t xid : cancelled) {
    clear_pending_ack(xid);
    if (const Retry* retry = find_mod_retry(xid)) {
      queue_->cancel(retry->timer);
      end_mod_retry(xid);
    }
  }
  // Remove what already made it into the data plane.
  std::vector<std::pair<sdwan::SwitchId, sdwan::FlowId>> to_remove;
  for (const auto& [key, epoch] : shared_->installed) {
    if (key.second == flow) to_remove.push_back(key);
  }
  for (const auto& [sw, fl] : to_remove) {
    send_rollback_remove(sw, fl);
  }
  if (obs::Context* obs = channel_->observability();
      obs != nullptr && obs->tracer.enabled()) {
    obs->tracer.instant(
        queue_->now(), "wave", "rollback.flow", tracks::controller(id_),
        {{"flow", static_cast<int>(flow)},
         {"cancelled_installs", static_cast<std::int64_t>(cancelled.size())},
         {"removed_entries", static_cast<std::int64_t>(to_remove.size())}});
  }
}

double ControllerNode::initial_rto(const Message& msg,
                                   double extra) const {
  // Worst-case fault-free RTT: request propagation (+ any middle-layer
  // latency) plus the ack's way back, then a safety margin. The first
  // timer can therefore never fire before the fault-free ack arrives —
  // with faults disabled retransmission is exactly never triggered.
  return 2.0 * channel_->path_delay_ms(msg.from, msg.to) + extra +
         kRetransmitMarginMs;
}

void ControllerNode::arm_mod_retry(std::uint64_t xid, Message msg,
                                   double extra) {
  ModRetry entry;
  entry.xid = xid;
  entry.live = true;
  Retry& r = entry.retry;
  r.msg = std::move(msg);
  r.extra_latency_ms = extra;
  r.rto_ms = initial_rto(r.msg, extra);
  r.epoch = shared_->wave_epoch;
  r.timer =
      queue_->schedule_in(r.rto_ms, [this, xid] { on_mod_timer(xid); });
  // Xids only grow, so this appends.
  mod_retries_.insert(mod_retry_at(xid), std::move(entry));
}

std::vector<ControllerNode::ModRetry>::iterator ControllerNode::mod_retry_at(
    std::uint64_t xid) {
  return std::lower_bound(
      mod_retries_.begin(), mod_retries_.end(), xid,
      [](const ModRetry& e, std::uint64_t x) { return e.xid < x; });
}

ControllerNode::Retry* ControllerNode::find_mod_retry(std::uint64_t xid) {
  const auto it = mod_retry_at(xid);
  return it != mod_retries_.end() && it->xid == xid && it->live
             ? &it->retry
             : nullptr;
}

void ControllerNode::end_mod_retry(std::uint64_t xid) {
  const auto it = mod_retry_at(xid);
  if (it == mod_retries_.end() || it->xid != xid || !it->live) return;
  it->live = false;
  // Sweep once the ended entries outnumber the live ones.
  if (++ended_mod_retries_ >= 32 &&
      2 * ended_mod_retries_ > mod_retries_.size()) {
    std::erase_if(mod_retries_, [](const ModRetry& e) { return !e.live; });
    ended_mod_retries_ = 0;
  }
}

void ControllerNode::arm_role_retry(sdwan::SwitchId sw, Message msg) {
  std::optional<Retry>& slot = role_retries_[static_cast<std::size_t>(sw)];
  // A re-adoption replaces the switch's earlier request and its timer.
  if (slot) queue_->cancel(slot->timer);
  Retry r;
  r.msg = std::move(msg);
  r.rto_ms = initial_rto(r.msg, 0.0);
  r.epoch = shared_->wave_epoch;
  r.timer =
      queue_->schedule_in(r.rto_ms, [this, sw] { on_role_timer(sw); });
  slot = std::move(r);
}

void ControllerNode::on_mod_timer(std::uint64_t xid) {
  Retry* r = find_mod_retry(xid);
  if (r == nullptr) return;
  if (!alive_ || r->epoch != shared_->wave_epoch ||
      !shared_->xid_mods[xid].pending) {
    end_mod_retry(xid);
    return;
  }
  if (r->attempts >= kMaxRetries ||
      !channel_->is_attached(r->msg.from)) {
    // Give up: the flow degrades to legacy forwarding instead of wedging
    // the wave; the audit reports it.
    clear_pending_ack(xid);
    const ModRecord rec = shared_->xid_mods[xid];
    if (rec.adopter >= 0) {
      shared_->degraded_flows.insert(rec.flow);
      if (rec.remove) {
        // A rollback removal itself exhausted: the entry may linger on
        // an unreachable switch. Count it; the flow stays degraded.
        ++shared_->rollback_failures;
      } else {
        if (obs::Context* obs = channel_->observability();
            obs != nullptr && obs->tracer.enabled()) {
          obs->tracer.instant(
              queue_->now(), "wave", "degrade.flow",
              tracks::controller(id_),
              {{"flow", static_cast<int>(rec.flow)},
               {"xid", static_cast<std::int64_t>(xid)},
               {"attempts", r->attempts}});
        }
        // Degradation means *legacy*, not half-programmed: cancel the
        // flow's sibling installs and remove what landed.
        end_mod_retry(xid);
        roll_back_flow(rec.flow);
        maybe_mark_converged();
        return;
      }
    }
    end_mod_retry(xid);
    maybe_mark_converged();
    return;
  }
  ++r->attempts;
  channel_->resend(r->msg, r->extra_latency_ms);
  r->rto_ms *= kRetransmitBackoff;
  r->timer =
      queue_->schedule_in(r->rto_ms, [this, xid] { on_mod_timer(xid); });
}

void ControllerNode::on_role_timer(sdwan::SwitchId sw) {
  std::optional<Retry>& slot = role_retries_[static_cast<std::size_t>(sw)];
  if (!slot) return;
  Retry& r = *slot;
  if (!alive_ || r.epoch != shared_->wave_epoch ||
      shared_->role_pending[static_cast<std::size_t>(sw)] == 0) {
    slot.reset();
    return;
  }
  if (r.attempts >= kMaxRetries ||
      !channel_->is_attached(r.msg.from)) {
    shared_->role_pending[static_cast<std::size_t>(sw)] = 0;
    shared_->degraded_switches.insert(sw);
    if (obs::Context* obs = channel_->observability();
        obs != nullptr && obs->tracer.enabled()) {
      obs->tracer.instant(queue_->now(), "wave", "degrade.switch",
                          tracks::controller(id_),
                          {{"switch", static_cast<int>(sw)},
                           {"attempts", r.attempts}});
    }
    slot.reset();
    return;
  }
  ++r.attempts;
  channel_->resend(r.msg);
  r.rto_ms *= kRetransmitBackoff;
  r.timer =
      queue_->schedule_in(r.rto_ms, [this, sw] { on_role_timer(sw); });
}

void ControllerNode::cancel_wave_timers() {
  for (const ModRetry& e : mod_retries_) {
    if (e.live) queue_->cancel(e.retry.timer);
  }
  for (const std::optional<Retry>& r : role_retries_) {
    if (r) queue_->cancel(r->timer);
  }
}

void ControllerNode::clear_retries() {
  mod_retries_.clear();
  ended_mod_retries_ = 0;
  for (std::optional<Retry>& r : role_retries_) r.reset();
}

void ControllerNode::maybe_mark_converged() {
  if (shared_->phase == WavePhase::kPreparing && shared_->pending_acks == 0) {
    shared_->converged_at = queue_->now();
    // Commit: the last ack landed, the distributed plan is now the data
    // plane's truth. RoleReplies do not gate the commit.
    shared_->phase = WavePhase::kCommitted;
    shared_->committed_epoch = shared_->wave_epoch;
    if (shared_->last_plan) shared_->committed_plan = shared_->last_plan;
    if (obs::Context* obs = channel_->observability();
        obs != nullptr) {
      const double wave_ms =
          shared_->converged_at - shared_->wave_started_at;
      obs->metrics
          .histogram("pm_wave_convergence_ms",
                     "Recovery-wave start-to-last-ack time "
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
  if (seen_seqs_.contains(m.seq)) {
    // Channel-injected duplicate (every logical message has a unique
    // seq; retransmissions reuse it).
    ++duplicates_suppressed_;
    return;
  }
  if (m.seq != 0) seen_seqs_.insert(m.seq);
  if (const auto* hb = std::get_if<Heartbeat>(&m.body)) {
    last_heard_[static_cast<std::size_t>(hb->from)] = queue_->now();
    miss_counts_[static_cast<std::size_t>(hb->from)] = 0;
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
  if (const auto* ack = std::get_if<FlowModAck>(&m.body)) {
    // Copied: compensating removals below can grow xid_mods.
    const ModRecord rec = ack->xid < shared_->xid_mods.size()
                              ? shared_->xid_mods[ack->xid]
                              : ModRecord{};
    const bool recorded = rec.adopter >= 0;
    if (ack->epoch != shared_->wave_epoch) {
      // Ack from a superseded wave: it must not complete work in (or
      // un-degrade flows of) the current one. But the old wave's mod DID
      // land on the switch — if the current plan no longer wants that
      // entry, compensate with a removal at the current epoch.
      ++shared_->stale_discarded;
      if (recorded && !rec.remove) {
        const auto key = std::make_pair(rec.sw, rec.flow);
        const auto cur = shared_->installed.find(key);
        if (cur == shared_->installed.end() || cur->second < ack->epoch) {
          shared_->installed[key] = ack->epoch;
        }
        const bool wanted =
            shared_->last_plan &&
            shared_->last_plan->has_assignment(key.first, key.second);
        // If wanted, the current wave re-installs (replace-on-install
        // re-tags the entry); otherwise it is an orphan — remove it.
        if (!wanted) send_rollback_remove(key.first, key.second);
      }
      return;
    }
    clear_pending_ack(ack->xid);
    if (recorded) {
      const auto key = std::make_pair(rec.sw, rec.flow);
      if (rec.remove) {
        shared_->installed.erase(key);
      } else {
        shared_->installed[key] = ack->epoch;
        if (shared_->rolled_back_flows.contains(rec.flow)) {
          // Install landed after its flow was rolled back (the in-flight
          // copy beat the cancellation): compensate immediately.
          send_rollback_remove(key.first, key.second);
        } else {
          // A late ack (e.g. after a retransmission) un-degrades the
          // flow.
          shared_->degraded_flows.erase(rec.flow);
        }
      }
    }
    maybe_mark_converged();
    return;
  }
  if (const auto* reply = std::get_if<RoleReply>(&m.body)) {
    if (reply->epoch != shared_->wave_epoch) {
      // Reply to a superseded wave's RoleRequest; the current wave's
      // own request/retry will collect its own reply.
      ++shared_->stale_discarded;
      return;
    }
    char& pending =
        shared_->role_pending[static_cast<std::size_t>(reply->sw)];
    const bool first = pending != 0;
    pending = 0;
    shared_->degraded_switches.erase(reply->sw);
    if (first) {
      // Handover resync: the switch reported its installed entries. Any
      // entry from an earlier epoch was installed by a master that may
      // have died before its ack arrived — this is the only channel
      // through which such state reaches the surviving control plane.
      // Record it, and remove whatever the current plan no longer wants.
      for (const sdwan::FlowEntry& e : reply->entries) {
        if (e.cookie >= shared_->wave_epoch) continue;
        const sdwan::FlowId flow =
            net_->flow_by_match(e.match.src, e.match.dst);
        if (flow < 0) continue;
        const auto key = std::make_pair(reply->sw, flow);
        auto& recorded = shared_->installed[key];
        recorded = std::max(recorded, e.cookie);
        const bool wanted =
            shared_->last_plan &&
            shared_->last_plan->has_assignment(key.first, key.second);
        // Wanted entries are re-installed by this wave's own mods
        // (replace-on-install re-tags them); orphans are removed.
        if (!wanted) send_rollback_remove(reply->sw, flow);
      }
    }
    return;
  }
}

}  // namespace pm::ctrl
