#include "ctrl/switch_agent.hpp"

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
  // Heartbeats and replies are controller-to-controller; ignore.
  const auto* role = std::get_if<RoleRequest>(&m.body);
  if (role == nullptr) return;
  // Epoch guard: a request below the high-water mark is a deposed
  // master's retransmission from a superseded wave. Discard without
  // replying — the new wave's master already holds the switch.
  if (role->epoch < epoch_) {
    ++stale_discarded_;
    return;
  }
  // A request at the mark is the one already applied (see the invariant
  // in switch_agent.hpp): the reply got lost or the channel copied the
  // request. Re-reply without re-applying.
  if (role->epoch == epoch_) {
    ++duplicates_suppressed_;
  } else {
    epoch_ = role->epoch;
    if (obs::Context* obs = channel_->observability();
        obs != nullptr && obs->tracer.enabled()) {
      obs->tracer.instant(
          channel_->queue_now(), "switch", "role.change", tracks::kSwitches,
          {{"switch", static_cast<int>(id_)},
           {"old_master", static_cast<int>(master_)},
           {"new_master", static_cast<int>(role->controller)},
           {"epoch", static_cast<std::int64_t>(role->epoch)},
           {"entries", static_cast<std::int64_t>(role->entries.size())}});
    }
    master_ = role->controller;
    // Mark and sweep: the slice replaces whatever the table holds.
    switch_->clear_flow_table();
    for (sdwan::FlowEntry entry : role->entries) {
      entry.cookie = role->epoch;
      switch_->install(entry);
    }
    ++slices_applied_;
  }
  Message reply;
  reply.from = switch_endpoint(id_);
  reply.to = m.from;
  reply.body = RoleReply{id_, role->epoch};
  channel_->send(std::move(reply));
}

}  // namespace pm::ctrl
