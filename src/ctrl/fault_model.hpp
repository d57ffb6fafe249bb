// Deterministic fault injection for the control channel.
//
// The paper's setting is an SD-WAN whose in-band control traffic shares
// the lossy wide-area data plane, so the protocol harness must not assume
// a perfect channel. A ChannelFaultModel describes, per message, the
// probability of loss and duplication, a uniform delay-jitter bound, an
// optional gross-reordering draw, and scheduled partition windows that
// cut specific endpoint pairs for a time interval. All draws come from
// one seeded engine, so a fixed seed reproduces the exact same fault
// sequence run after run — chaos sweeps are replayable.
#pragma once

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "ctrl/messages.hpp"

namespace pm::ctrl {

/// Cuts delivery between endpoints `a` and `b` (symmetric) while the
/// simulation clock is inside [from_ms, to_ms). kAnyEndpoint (-1)
/// wildcards one or both sides, so a single window can isolate one
/// endpoint from everyone.
struct PartitionWindow {
  static constexpr EndpointId kAnyEndpoint = -1;
  EndpointId a = kAnyEndpoint;
  EndpointId b = kAnyEndpoint;
  double from_ms = 0.0;
  double to_ms = 0.0;

  bool cuts(EndpointId x, EndpointId y, double now_ms) const;
};

struct ChannelFaultModel {
  std::uint64_t seed = 1;
  /// Per-message probability the channel silently loses it.
  double drop_probability = 0.0;
  /// Per-message probability a second copy is delivered (own jitter).
  double duplicate_probability = 0.0;
  /// Uniform extra delivery delay in [0, jitter_ms).
  double jitter_ms = 0.0;
  /// Probability of gross reordering: the message is held back an extra
  /// reorder_delay_ms so later traffic overtakes it.
  double reorder_probability = 0.0;
  double reorder_delay_ms = 0.0;
  std::vector<PartitionWindow> partitions;

  /// True when the model can affect any message at all. A
  /// default-constructed model is inert: the injector draws nothing from
  /// its engine and adds no delay, so the channel keeps its exact
  /// fault-free behaviour.
  bool active() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           jitter_ms > 0.0 || reorder_probability > 0.0 ||
           !partitions.empty();
  }
};

struct FaultStats {
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t reordered = 0;
  std::uint64_t partition_drops = 0;
};

/// The seeded draw engine the channel consults on every send. Kept
/// separate from the config struct so re-arming with the same model
/// restarts the identical pseudo-random sequence.
class FaultInjector {
 public:
  explicit FaultInjector(ChannelFaultModel model)
      : model_(std::move(model)), rng_(model_.seed) {}

  const ChannelFaultModel& model() const { return model_; }
  const FaultStats& stats() const { return stats_; }

  /// True if a partition window cuts (from, to) at `now_ms`; counted.
  bool partitioned(EndpointId from, EndpointId to, double now_ms);

  /// True if this message should be lost; counted.
  bool drop();

  /// Extra delivery delay for this message (jitter + possible reorder
  /// hold-back); counted.
  double extra_delay();

  /// True if a duplicate copy should also be delivered; counted.
  bool duplicate();

 private:
  double uniform() { return uni_(rng_); }

  ChannelFaultModel model_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> uni_{0.0, 1.0};
  FaultStats stats_;
};

}  // namespace pm::ctrl
