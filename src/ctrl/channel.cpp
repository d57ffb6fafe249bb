#include "ctrl/channel.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "graph/shortest_path.hpp"
#include "obs/obs.hpp"

namespace pm::ctrl {

namespace {

/// Bucket bounds (ms) for the message-latency histogram: ATT propagation
/// delays sit in the low tens of ms; jitter and retransmission backoff
/// push the tail to the hundreds.
std::vector<double> latency_buckets() {
  return {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500};
}

obs::Tracer::Args message_args(const Message& m, const std::string& kind) {
  return {{"kind", kind},
          {"from", m.from},
          {"to", m.to},
          {"seq", static_cast<std::int64_t>(m.seq)}};
}

}  // namespace

const std::string& message_kind_name(std::size_t index) {
  static const std::array<std::string, kMessageKindCount> kNames = {
      "heartbeat", "role-request", "role-reply", "flow-mod",
      "flow-mod-ack"};
  return kNames.at(index);
}

ControlChannel::ControlChannel(const sdwan::Network& net,
                               sim::EventQueue& queue)
    : net_(&net),
      queue_(&queue),
      endpoints_(static_cast<std::size_t>(net.switch_count() +
                                          net.controller_count())),
      delays_(static_cast<std::size_t>(net.switch_count()) *
              static_cast<std::size_t>(net.switch_count())),
      delay_row_filled_(static_cast<std::size_t>(net.switch_count()), 0) {}

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
  faults_ = model.active() ? std::make_unique<FaultInjector>(model)
                           : nullptr;
}

const FaultStats& ControlChannel::fault_stats() const {
  static const FaultStats kNone;
  return faults_ ? faults_->stats() : kNone;
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
  return shortest_delay(ea->location, eb->location);
}

std::uint64_t ControlChannel::send(Message m, double extra_latency_ms) {
  m.seq = ++next_seq_;
  const std::uint64_t seq = m.seq;
  dispatch(std::move(m), extra_latency_ms);
  return seq;
}

void ControlChannel::resend(Message m, double extra_latency_ms) {
  if (m.seq == 0) {
    throw std::logic_error("resend of a message that was never sent");
  }
  ++retransmissions_;
  if (obs_ != nullptr && obs_->tracer.enabled()) {
    obs_->tracer.instant(queue_->now(), "channel", "retransmit",
                         tracks::kChannel,
                         message_args(m, message_kind(m)));
  }
  dispatch(std::move(m), extra_latency_ms);
}

void ControlChannel::dispatch(Message m, double extra_latency_ms) {
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
  const std::string& kind = message_kind(m);
  ++sent_;
  ++by_kind_[m.body.index()];
  if (tracing) {
    obs_->tracer.instant(queue_->now(), "channel", "send",
                         tracks::kChannel, message_args(m, kind));
  }

  // Propagation delay between the endpoints' locations over the data
  // network (in-band control), via the precomputed all-pairs distances in
  // Network's delay matrix when one endpoint is a controller; otherwise
  // re-derive from the topology. Both locations are topology nodes, so
  // use the graph distance directly.
  const double base_delay =
      shortest_delay(from->location, to->location) +
      extra_latency_ms;

  if (!faults_) {
    deliver_in(base_delay, std::move(m));
    return;
  }

  // Fault-injected path. Draw order is fixed (partition, drop, delay,
  // duplicate) so a given seed replays the identical fault sequence.
  if (faults_->partitioned(m.from, m.to, queue_->now(), kind)) {
    if (tracing) {
      auto args = message_args(m, kind);
      args.emplace_back("reason", "partition");
      obs_->tracer.instant(queue_->now(), "channel", "drop",
                           tracks::kChannel, std::move(args));
    }
    return;
  }
  if (faults_->drop(kind)) {
    if (tracing) {
      auto args = message_args(m, kind);
      args.emplace_back("reason", "fault-injected");
      obs_->tracer.instant(queue_->now(), "channel", "drop",
                           tracks::kChannel, std::move(args));
    }
    return;
  }
  const double jittered = base_delay + faults_->extra_delay(kind);
  const bool dup = faults_->duplicate(kind);
  if (dup) {
    deliver_in(base_delay + faults_->extra_delay(kind), m);
  }
  deliver_in(jittered, std::move(m));
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

void ControlChannel::invalidate_delays() {
  std::fill(delay_row_filled_.begin(), delay_row_filled_.end(), 0);
  delay_rows_filled_ = 0;
}

std::size_t ControlChannel::cached_delay_pairs() const {
  // Pairs with a filled end: r diagonal pairs plus every off-diagonal
  // pair except those between two unfilled locations.
  const std::size_t n = delay_row_filled_.size();
  const std::size_t r = delay_rows_filled_;
  const auto pairs = [](std::size_t k) { return k < 2 ? 0 : k * (k - 1) / 2; };
  return r + pairs(n) - pairs(n - r);
}

double ControlChannel::shortest_delay(sdwan::SwitchId a,
                                      sdwan::SwitchId b) const {
  if (a == b) return 0.0;
  const auto n = delay_row_filled_.size();
  const auto ua = static_cast<std::size_t>(a);
  const auto ub = static_cast<std::size_t>(b);
  if (delay_row_filled_[ua] == 0 && delay_row_filled_[ub] == 0) {
    const auto sssp = graph::dijkstra(net_->topology().graph(), a);
    for (std::size_t v = 0; v < n; ++v) {
      delays_[ua * n + v] = delays_[v * n + ua] = sssp.dist[v];
    }
    delay_row_filled_[ua] = 1;
    ++delay_rows_filled_;
  }
  return delays_[ua * n + ub];
}

}  // namespace pm::ctrl
