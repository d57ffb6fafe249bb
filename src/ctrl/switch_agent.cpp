#include "ctrl/switch_agent.hpp"

#include <algorithm>
#include <tuple>

#include "obs/obs.hpp"

namespace pm::ctrl {

EndpointId controller_endpoint(const sdwan::Network& net,
                               sdwan::ControllerId j) {
  return net.switch_count() + j;
}

SwitchAgent::SwitchAgent(sdwan::SwitchId id, sdwan::HybridSwitch& sw,
                         ControlChannel& channel)
    : id_(id), switch_(&sw), channel_(&channel) {}

void SwitchAgent::attach() {
  channel_->attach(switch_endpoint(id_), id_,
                   [this](const Message& m) { on_message(m); });
}

void SwitchAgent::on_message(const Message& m) {
  if (const auto* role = std::get_if<RoleRequest>(&m.body)) {
    // Epoch guard: a request below the high-water mark is a deposed
    // master's retransmission from a superseded wave. Discard without
    // replying — the new wave's master already holds the switch.
    if (role->epoch < epoch_) {
      ++stale_discarded_;
      return;
    }
    if (seen_seqs_.contains(m.seq)) {
      ++duplicates_suppressed_;
    } else {
      seen_seqs_.insert(m.seq);
      if (role->epoch > epoch_) epoch_ = role->epoch;
      // Mode flip: the switch changes master (orphaned -> adopted, or a
      // re-adoption by a later wave).
      if (obs::Context* obs = channel_->observability();
          obs != nullptr && obs->tracer.enabled()) {
        obs->tracer.instant(
            channel_->queue_now(), "switch", "role.change",
            tracks::kSwitches,
            {{"switch", static_cast<int>(id_)},
             {"old_master", static_cast<int>(master_)},
             {"new_master", static_cast<int>(role->controller)},
             {"epoch", static_cast<std::int64_t>(role->epoch)}});
      }
      master_ = role->controller;
      master_endpoint_ = m.from;
    }
    // Always (re)reply: a duplicate request usually means our first
    // reply was lost on the way back. The reply carries the handover
    // resync — every installed entry with its epoch cookie, in match
    // order — so the new master can reconcile state left by a crashed
    // predecessor.
    Message reply;
    reply.from = switch_endpoint(id_);
    reply.to = m.from;
    RoleReply body{id_, role->controller, role->epoch,
                   switch_->flow_table()};
    std::sort(body.entries.begin(), body.entries.end(),
              [](const sdwan::FlowEntry& a, const sdwan::FlowEntry& b) {
                return std::tie(a.match.src, a.match.dst) <
                       std::tie(b.match.src, b.match.dst);
              });
    reply.body = std::move(body);
    channel_->send(reply);
    return;
  }
  if (const auto* mod = std::get_if<FlowMod>(&m.body)) {
    // Only the master may program the switch (OpenFlow master role).
    // A mod from anyone else is silently ignored (no ack, and the seq is
    // deliberately NOT marked seen: a retransmission arriving after the
    // role handover completes must still be applied).
    if (m.from != master_endpoint_) return;
    // Epoch guard: the master endpoint can match across waves (plans are
    // seeded incrementally, so a re-adoption often keeps the adopter);
    // the epoch tells a superseded wave's mod apart. No ack — letting the
    // stale wave's machinery believe it succeeded would be worse.
    if (mod->epoch < epoch_) {
      ++stale_discarded_;
      return;
    }
    if (seen_seqs_.contains(m.seq)) {
      // Already applied — the ack got lost. Re-ack without re-applying
      // (a second install would duplicate the flow-table entry).
      ++duplicates_suppressed_;
      Message ack;
      ack.from = switch_endpoint(id_);
      ack.to = m.from;
      ack.body = FlowModAck{id_, mod->xid, mod->epoch};
      channel_->send(ack);
      return;
    }
    seen_seqs_.insert(m.seq);
    if (mod->epoch > epoch_) epoch_ = mod->epoch;
    // Replace-on-install: a later wave re-programming the same match
    // supersedes the old entry instead of stacking a duplicate, and the
    // entry's epoch cookie moves forward with it.
    switch_->remove(mod->entry.match);
    if (!mod->remove) {
      sdwan::FlowEntry entry = mod->entry;
      entry.cookie = mod->epoch;
      switch_->install(entry);
    }
    ++flow_mods_applied_;
    if (obs::Context* obs = channel_->observability();
        obs != nullptr && obs->tracer.enabled()) {
      obs->tracer.instant(
          channel_->queue_now(), "switch", "flowmod.applied",
          tracks::kSwitches,
          {{"switch", static_cast<int>(id_)},
           {"xid", static_cast<std::int64_t>(mod->xid)},
           {"remove", mod->remove}});
    }
    Message ack;
    ack.from = switch_endpoint(id_);
    ack.to = m.from;
    ack.body = FlowModAck{id_, mod->xid, mod->epoch};
    channel_->send(ack);
    return;
  }
  // Heartbeats / replies are controller-to-controller; ignore.
}

}  // namespace pm::ctrl
