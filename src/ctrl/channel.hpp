// The control channel: delivers messages between endpoints over the
// event queue, paying D_ij — the network's in-band propagation delay
// between switch i and controller j, where i is the location of the end
// that is not controller j. Every protocol message has a controller on
// at least one end. Per-message statistics are kept for the convergence
// reports. The channel stamps nothing on a message: a duplicate, a
// retransmission and the original are the same bytes, and receivers
// tell them apart by the message's own epoch or heartbeat sequence
// (messages.hpp).
//
// A ChannelFaultModel makes the channel lossy: per-message drops,
// duplicates, delay jitter, gross reordering and scheduled partition
// windows, all drawn from one seeded engine so runs are replayable. The
// channel always consults its injector; the default inert model draws
// nothing and delays nothing, so the send path stays the fault-free one.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
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
  /// D_ij of its ends plus `extra_latency_ms`. Throws std::logic_error
  /// when neither end is a controller.
  void send(Message m, double extra_latency_ms = 0.0);

  /// Current simulated time (agents without their own queue pointer use
  /// it to stamp trace events).
  double queue_now() const { return queue_->now(); }

  /// Whether `id` is currently attached (known and not detached).
  bool is_attached(EndpointId id) const {
    const Endpoint* e = endpoint(id);
    return e != nullptr && e->attached;
  }

  /// Re-sends a message (ack-driven retransmission): send(), faults
  /// included, that also counts and traces a retransmission. The
  /// receiver recognises the copy by the message's own content (see
  /// messages.hpp).
  void resend(Message m, double extra_latency_ms = 0.0);

  /// Replaces the fault model; draws and statistics restart.
  void set_fault_model(const ChannelFaultModel& model);

  /// Injected-fault statistics; zeros under an inert model.
  const FaultStats& fault_stats() const { return faults_.stats(); }

  /// Attaches the observability context (tracer + metrics). The channel
  /// then traces send/recv/drop/retransmit events on the simulated clock
  /// and feeds the message-latency histogram. nullptr (the default)
  /// keeps the send path free of observability work beyond one branch.
  void set_observability(obs::Context* obs);
  obs::Context* observability() const { return obs_; }

  /// Propagation delay D_ij between two endpoints, as send() charges it;
  /// the agents use it to size retransmission timeouts. Returns 0 if
  /// either endpoint is unknown and throws std::logic_error when neither
  /// is a controller.
  double path_delay_ms(EndpointId a, EndpointId b) const;

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
  void deliver_in(double delay, Message m);
  /// D_ij between known endpoints `a` (located at `ea`) and `b`.
  double delay_ms(EndpointId a, const Endpoint& ea, EndpointId b,
                  const Endpoint& eb) const;

  const sdwan::Network* net_;
  sim::EventQueue* queue_;
  /// Indexed by endpoint id.
  std::vector<Endpoint> endpoints_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::array<std::uint64_t, kMessageKindCount> by_kind_{};
  FaultInjector faults_{ChannelFaultModel{}};
  obs::Context* obs_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
};

}  // namespace pm::ctrl
