#include "ctrl/channel.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace pm::ctrl {

namespace {

/// Bucket bounds (ms) for the message-latency histogram: ATT propagation
/// delays sit in the low tens of ms; jitter and retransmission backoff
/// push the tail to the hundreds.
std::vector<double> latency_buckets() {
  return {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500};
}

/// Trace arguments of a channel event. RoleRequests and RoleReplies also
/// carry their wave epoch, so a send, drop or retransmission can be tied
/// to the wave it belongs to.
obs::Tracer::Args message_args(const Message& m, const std::string& kind) {
  obs::Tracer::Args args{{"kind", kind}, {"from", m.from}, {"to", m.to}};
  if (const auto* request = std::get_if<RoleRequest>(&m.body)) {
    args.emplace_back("epoch", static_cast<std::int64_t>(request->epoch));
  } else if (const auto* reply = std::get_if<RoleReply>(&m.body)) {
    args.emplace_back("epoch", static_cast<std::int64_t>(reply->epoch));
  }
  return args;
}

}  // namespace

const std::string& message_kind_name(std::size_t index) {
  static const std::array<std::string, kMessageKindCount> kNames = {
      "heartbeat", "role-request", "role-reply"};
  return kNames.at(index);
}

ControlChannel::ControlChannel(const sdwan::Network& net,
                               sim::EventQueue& queue)
    : net_(&net),
      queue_(&queue),
      endpoints_(static_cast<std::size_t>(net.switch_count() +
                                          net.controller_count())) {}

void ControlChannel::attach(EndpointId id, sdwan::SwitchId location,
                            Handler handler) {
  net_->topology().graph().check_node(location);
  if (id < 0) {
    throw std::invalid_argument("negative endpoint id " +
                                std::to_string(id));
  }
  if (static_cast<std::size_t>(id) >= endpoints_.size()) {
    endpoints_.resize(static_cast<std::size_t>(id) + 1);
  }
  endpoints_[static_cast<std::size_t>(id)] = {location, std::move(handler),
                                              true, true};
}

void ControlChannel::detach(EndpointId id) {
  if (endpoint(id) != nullptr) {
    endpoints_[static_cast<std::size_t>(id)].attached = false;
  }
}

void ControlChannel::set_fault_model(const ChannelFaultModel& model) {
  faults_ = FaultInjector(model);
}

void ControlChannel::set_observability(obs::Context* obs) {
  obs_ = obs;
  latency_hist_ = nullptr;  // re-resolved lazily against the new registry
}

std::map<std::string, std::uint64_t> ControlChannel::sent_by_kind() const {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t k = 0; k < kMessageKindCount; ++k) {
    if (by_kind_[k] > 0) out.emplace(message_kind_name(k), by_kind_[k]);
  }
  return out;
}

double ControlChannel::path_delay_ms(EndpointId a, EndpointId b) const {
  const Endpoint* ea = endpoint(a);
  const Endpoint* eb = endpoint(b);
  if (ea == nullptr || eb == nullptr) return 0.0;
  return delay_ms(a, *ea, b, *eb);
}

double ControlChannel::delay_ms(EndpointId a, const Endpoint& ea,
                                EndpointId b, const Endpoint& eb) const {
  const int switches = net_->switch_count();
  if (b >= switches) return net_->delay_ms(ea.location, b - switches);
  if (a >= switches) return net_->delay_ms(eb.location, a - switches);
  throw std::logic_error("message between switch endpoints " +
                         std::to_string(a) + " and " + std::to_string(b) +
                         " has no controller end");
}

void ControlChannel::send(Message m, double extra_latency_ms) {
  const Endpoint* from = endpoint(m.from);
  if (from == nullptr || !from->attached) {
    throw std::logic_error("send from unattached endpoint " +
                           std::to_string(m.from));
  }
  const bool tracing = obs_ != nullptr && obs_->tracer.enabled();
  const Endpoint* to = endpoint(m.to);
  if (to == nullptr) {
    ++dropped_;
    if (tracing) {
      auto args = message_args(m, message_kind(m));
      args.emplace_back("reason", "unknown-endpoint");
      obs_->tracer.instant(queue_->now(), "channel", "drop",
                           tracks::kChannel, std::move(args));
    }
    return;
  }
  const double base_delay =
      delay_ms(m.from, *from, m.to, *to) + extra_latency_ms;
  const std::string& kind = message_kind(m);
  ++sent_;
  ++by_kind_[m.body.index()];
  if (tracing) {
    obs_->tracer.instant(queue_->now(), "channel", "send",
                         tracks::kChannel, message_args(m, kind));
  }

  // Draw order is fixed (partition, drop, delay, duplicate) so a given
  // seed replays the identical fault sequence. An inert model draws
  // nothing and adds 0.0 delay, so every delivery time keeps its bits.
  if (faults_.partitioned(m.from, m.to, queue_->now())) {
    if (tracing) {
      auto args = message_args(m, kind);
      args.emplace_back("reason", "partition");
      obs_->tracer.instant(queue_->now(), "channel", "drop",
                           tracks::kChannel, std::move(args));
    }
    return;
  }
  if (faults_.drop()) {
    if (tracing) {
      auto args = message_args(m, kind);
      args.emplace_back("reason", "fault-injected");
      obs_->tracer.instant(queue_->now(), "channel", "drop",
                           tracks::kChannel, std::move(args));
    }
    return;
  }
  const double jittered = base_delay + faults_.extra_delay();
  const bool dup = faults_.duplicate();
  if (dup) {
    deliver_in(base_delay + faults_.extra_delay(), m);
  }
  deliver_in(jittered, std::move(m));
}

void ControlChannel::resend(Message m, double extra_latency_ms) {
  ++retransmissions_;
  if (obs_ != nullptr && obs_->tracer.enabled()) {
    obs_->tracer.instant(queue_->now(), "channel", "retransmit",
                         tracks::kChannel,
                         message_args(m, message_kind(m)));
  }
  send(std::move(m), extra_latency_ms);
}

void ControlChannel::deliver_in(double delay, Message m) {
  const EndpointId target = m.to;
  const double sent_at = queue_->now();
  auto deliver = [this, target, sent_at, m = std::move(m)] {
    const Endpoint* to = endpoint(target);
    if (to == nullptr || !to->attached || !to->handler) {
      ++dropped_;
      if (obs_ != nullptr && obs_->tracer.enabled()) {
        auto args = message_args(m, message_kind(m));
        args.emplace_back("reason", "detached-endpoint");
        obs_->tracer.instant(queue_->now(), "channel", "drop",
                             tracks::kChannel, std::move(args));
      }
      return;
    }
    if (obs_ != nullptr && obs_->detailed_metrics) {
      if (latency_hist_ == nullptr) {
        latency_hist_ = &obs_->metrics.histogram(
            "pm_message_latency_ms",
            "Control-message delivery latency (simulated clock)",
            latency_buckets());
      }
      latency_hist_->observe(queue_->now() - sent_at);
    }
    if (obs_ != nullptr && obs_->tracer.enabled()) {
      auto args = message_args(m, message_kind(m));
      args.emplace_back("latency_ms", queue_->now() - sent_at);
      obs_->tracer.instant(queue_->now(), "channel", "recv",
                           tracks::kChannel, std::move(args));
    }
    to->handler(m);
  };
  static_assert(sim::Task::stores_inline<decltype(deliver)>(),
                "a delivery event must not allocate");
  queue_->schedule_in(delay, std::move(deliver));
}

}  // namespace pm::ctrl
