// The control channel: delivers messages between endpoints over the
// event queue, paying the propagation delay of the shortest path between
// their locations (in-band control). Per-message statistics are kept for
// the convergence reports.
//
// An optional ChannelFaultModel makes the channel lossy: per-message
// drops, duplicates, delay jitter, gross reordering and scheduled
// partition windows, all drawn from one seeded engine so runs are
// replayable. Without a model the send path is byte-for-byte the
// fault-free one.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/fault_model.hpp"
#include "ctrl/messages.hpp"
#include "sdwan/network.hpp"
#include "sim/event_queue.hpp"

namespace pm::obs {
struct Context;
class Histogram;
}  // namespace pm::obs

namespace pm::ctrl {

/// Trace track ("timeline row") layout shared by the protocol agents:
/// the channel and the switch population get one row each, every
/// controller its own row, waves a dedicated row so superseded waves
/// cannot unbalance nesting.
namespace tracks {
inline constexpr int kChannel = 1;
inline constexpr int kSwitches = 2;
inline constexpr int kWaves = 3;
inline constexpr int kControllerBase = 10;
inline int controller(sdwan::ControllerId j) {
  return kControllerBase + static_cast<int>(j);
}
}  // namespace tracks

class ControlChannel {
 public:
  using Handler = std::function<void(const Message&)>;

  ControlChannel(const sdwan::Network& net, sim::EventQueue& queue);

  /// Registers the receive handler of an endpoint located at topology
  /// node `location`. Endpoints must be registered before they can
  /// receive; sending to an unregistered endpoint drops the message
  /// (counted). Ids are dense (switches, then controllers); a handler
  /// must not attach an id outside the network's range while it runs.
  void attach(EndpointId id, sdwan::SwitchId location, Handler handler);

  /// Detaches an endpoint (a dead controller); its queued messages are
  /// dropped on delivery.
  void detach(EndpointId id);

  /// Sends `m` (m.from must be attached); delivery is scheduled after the
  /// locations' shortest-path delay plus `extra_latency_ms`. Assigns
  /// m.seq from the channel-wide counter and returns it, so a sender that
  /// wants ack-driven retransmission can resend() the same message.
  std::uint64_t send(Message m, double extra_latency_ms = 0.0);

  /// Current simulated time (agents without their own queue pointer use
  /// it to stamp trace events).
  double queue_now() const { return queue_->now(); }

  /// Whether `id` is currently attached (known and not detached).
  bool is_attached(EndpointId id) const {
    const Endpoint* e = endpoint(id);
    return e != nullptr && e->attached;
  }

  /// Re-sends an already-sequenced message (ack-driven retransmission):
  /// same path as send() — faults included — but m.seq is kept so the
  /// receiver can deduplicate against the original.
  void resend(Message m, double extra_latency_ms = 0.0);

  /// Arms (or replaces) the fault model; statistics restart. An inert
  /// model (active() == false) disarms injection entirely.
  void set_fault_model(const ChannelFaultModel& model);

  /// Injected-fault statistics; zeros when no model is armed.
  const FaultStats& fault_stats() const;

  /// Attaches the observability context (tracer + metrics). The channel
  /// then traces send/recv/drop/retransmit events on the simulated clock
  /// and feeds the message-latency histogram. nullptr (the default)
  /// keeps the send path free of observability work beyond one branch.
  void set_observability(obs::Context* obs);
  obs::Context* observability() const { return obs_; }

  /// Propagation delay between two attached endpoints' locations; the
  /// agents use it to size retransmission timeouts. Returns 0 if either
  /// endpoint is unknown.
  double path_delay_ms(EndpointId a, EndpointId b) const;

  /// Drops memoized pairwise delays. Must be called whenever the
  /// topology/failure state the delays were computed from changes
  /// (link failures, reweighting); the simulation hooks it from its
  /// failure events.
  void invalidate_delays();
  /// Location pairs {a, b} (a == b included) whose delay is memoized.
  std::size_t cached_delay_pairs() const;

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_dropped() const { return dropped_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  /// Messages sent per kind name; kinds never sent are absent.
  std::map<std::string, std::uint64_t> sent_by_kind() const;

 private:
  struct Endpoint {
    sdwan::SwitchId location = -1;
    Handler handler;
    bool known = false;  // ever attached
    bool attached = false;
  };

  const Endpoint* endpoint(EndpointId id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= endpoints_.size()) {
      return nullptr;
    }
    const Endpoint& e = endpoints_[static_cast<std::size_t>(id)];
    return e.known ? &e : nullptr;
  }
  void dispatch(Message m, double extra_latency_ms);
  void deliver_in(double delay, Message m);
  double shortest_delay(sdwan::SwitchId a, sdwan::SwitchId b) const;

  const sdwan::Network* net_;
  sim::EventQueue* queue_;
  /// Indexed by endpoint id.
  std::vector<Endpoint> endpoints_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t next_seq_ = 0;
  std::array<std::uint64_t, kMessageKindCount> by_kind_{};
  std::unique_ptr<FaultInjector> faults_;
  obs::Context* obs_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
  /// Memoized propagation delays, row-major by location: delays_[a * n +
  /// b] is valid while row a or row b is filled. Filling a row runs one
  /// Dijkstra from that location and writes both halves, so a pair holds
  /// the value of the latest Dijkstra from either end.
  mutable std::vector<double> delays_;
  mutable std::vector<char> delay_row_filled_;
  mutable std::size_t delay_rows_filled_ = 0;
};

}  // namespace pm::ctrl
