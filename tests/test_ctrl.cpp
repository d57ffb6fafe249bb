#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/metrics.hpp"
#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "golden.hpp"
#include "graph/shortest_path.hpp"

namespace pm::ctrl {
namespace {

using golden::fnv1a64;
using golden::hex64;
using golden::read_data_file;

const sdwan::Network& att() {
  static const sdwan::Network net = core::make_att_network();
  return net;
}

RecoveryPolicy pm_policy() {
  return [](const sdwan::FailureState& state,
            const core::RecoveryPlan* previous) {
    core::PmOptions opts;
    opts.seed = previous;
    return core::run_pm(state, opts);
  };
}

// ---------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------

TEST(Channel, DeliversWithPropagationDelay) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  double received_at = -1.0;
  channel.attach(0, 0, [&](const Message&) { received_at = queue.now(); });
  channel.attach(1, 13, [&](const Message&) {});
  Message m;
  m.from = 1;
  m.to = 0;
  m.body = Heartbeat{0, 1};
  channel.send(m);
  queue.run();
  // Node 13 (Dallas) to node 0 (New York) over the graph: positive,
  // finite, equals the shortest-path delay.
  EXPECT_GT(received_at, 0.0);
  EXPECT_NEAR(received_at,
              graph::dijkstra(att().topology().graph(), 13)
                  .dist[0],
              1e-9);
  EXPECT_EQ(channel.messages_sent(), 1u);
}

TEST(Channel, DropsToUnknownAndCountsKinds) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  channel.attach(0, 0, [](const Message&) {});
  Message m;
  m.from = 0;
  m.to = 999;  // never attached
  m.body = RoleRequest{1};
  channel.send(m);
  queue.run();
  EXPECT_EQ(channel.messages_dropped(), 1u);
  EXPECT_THROW(channel.send({998, 0, Heartbeat{}}), std::logic_error);
}

TEST(Channel, DetachedEndpointDropsInFlight) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  int received = 0;
  channel.attach(0, 0, [&](const Message&) { ++received; });
  channel.attach(1, 24, [](const Message&) {});
  Message m;
  m.from = 1;
  m.to = 0;
  m.body = Heartbeat{0, 1};
  channel.send(m);
  channel.detach(0);  // before delivery
  queue.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(channel.messages_dropped(), 1u);
}

TEST(Channel, SendToDetachedEndpointCountsDrop) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  int received = 0;
  channel.attach(0, 0, [&](const Message&) { ++received; });
  channel.attach(1, 24, [](const Message&) {});
  channel.detach(0);  // before the send, not merely before delivery
  Message m;
  m.from = 1;
  m.to = 0;
  m.body = Heartbeat{0, 1};
  channel.send(m);
  queue.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(channel.messages_sent(), 1u);
  EXPECT_EQ(channel.messages_dropped(), 1u);
}

TEST(Channel, CountsEveryMessageKind) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  channel.attach(0, 0, [](const Message&) {});
  channel.attach(1, 24, [](const Message&) {});
  channel.send({1, 0, Heartbeat{0, 1}});
  channel.send({1, 0, RoleRequest{2}});
  channel.send({0, 1, RoleReply{0, 2}});
  channel.send({1, 0, FlowMod{}});
  channel.send({0, 1, FlowModAck{0, 7}});
  queue.run();
  const auto& kinds = channel.sent_by_kind();
  ASSERT_EQ(kinds.size(), 5u);
  EXPECT_EQ(kinds.at("heartbeat"), 1u);
  EXPECT_EQ(kinds.at("role-request"), 1u);
  EXPECT_EQ(kinds.at("role-reply"), 1u);
  EXPECT_EQ(kinds.at("flow-mod"), 1u);
  EXPECT_EQ(kinds.at("flow-mod-ack"), 1u);
  EXPECT_EQ(channel.messages_sent(), 5u);
}

TEST(Channel, ResendKeepsSequenceAndCountsRetransmission) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  std::vector<std::uint64_t> seqs;
  channel.attach(0, 0, [&](const Message& m) { seqs.push_back(m.seq); });
  channel.attach(1, 24, [](const Message&) {});
  Message m;
  m.from = 1;
  m.to = 0;
  m.body = Heartbeat{0, 1};
  m.seq = channel.send(m);
  channel.resend(m);
  queue.run();
  EXPECT_EQ(channel.retransmissions(), 1u);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], seqs[1]);
  EXPECT_NE(seqs[0], 0u);
  Message fresh;
  fresh.from = 1;
  fresh.to = 0;
  fresh.body = Heartbeat{};
  EXPECT_THROW(channel.resend(fresh), std::logic_error);
}

// ---------------------------------------------------------------------
// Channel fault injection
// ---------------------------------------------------------------------

TEST(Channel, CertainDropLosesEverythingAndIsCounted) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  int received = 0;
  channel.attach(0, 0, [&](const Message&) { ++received; });
  channel.attach(1, 24, [](const Message&) {});
  ChannelFaultModel model;
  model.drop_probability = 1.0;
  channel.set_fault_model(model);
  for (int i = 0; i < 10; ++i) {
    channel.send({1, 0, Heartbeat{0, static_cast<std::uint64_t>(i)}});
  }
  queue.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(channel.messages_sent(), 10u);  // sends are still accounted
  EXPECT_EQ(channel.messages_dropped(), 0u);  // injected loss is separate
  EXPECT_EQ(channel.fault_stats().injected_drops, 10u);
}

TEST(Channel, CertainDuplicationDeliversTwiceWithSameSeq) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  std::vector<std::uint64_t> seqs;
  channel.attach(0, 0, [&](const Message& m) { seqs.push_back(m.seq); });
  channel.attach(1, 24, [](const Message&) {});
  ChannelFaultModel model;
  model.duplicate_probability = 1.0;
  channel.set_fault_model(model);
  channel.send({1, 0, Heartbeat{0, 1}});
  queue.run();
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], seqs[1]);
  EXPECT_EQ(channel.fault_stats().injected_duplicates, 1u);
}

TEST(Channel, ReorderHoldbackDelaysDelivery) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  double received_at = -1.0;
  channel.attach(0, 0, [&](const Message&) { received_at = queue.now(); });
  channel.attach(1, 13, [](const Message&) {});
  ChannelFaultModel model;
  model.reorder_probability = 1.0;
  model.reorder_delay_ms = 100.0;
  channel.set_fault_model(model);
  channel.send({1, 0, Heartbeat{0, 1}});
  queue.run();
  const double base = graph::dijkstra(att().topology().graph(), 13).dist[0];
  EXPECT_NEAR(received_at, base + 100.0, 1e-9);
  EXPECT_EQ(channel.fault_stats().reordered, 1u);
}

TEST(Channel, JitterReordersBackToBackMessages) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  std::vector<std::uint64_t> seqs;
  channel.attach(0, 0, [&](const Message& m) { seqs.push_back(m.seq); });
  channel.attach(1, 24, [](const Message&) {});
  ChannelFaultModel model;
  model.seed = 7;
  model.jitter_ms = 30.0;
  channel.set_fault_model(model);
  for (int i = 0; i < 20; ++i) {
    channel.send({1, 0, Heartbeat{0, static_cast<std::uint64_t>(i)}});
  }
  queue.run();
  ASSERT_EQ(seqs.size(), 20u);
  EXPECT_FALSE(std::is_sorted(seqs.begin(), seqs.end()))
      << "30 ms jitter on back-to-back sends must invert some pair";
}

TEST(Channel, PartitionWindowCutsPairForItsInterval) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  int received = 0;
  channel.attach(0, 0, [&](const Message&) { ++received; });
  channel.attach(1, 24, [](const Message&) {});
  ChannelFaultModel model;
  model.partitions.push_back({0, 1, 100.0, 200.0});
  channel.set_fault_model(model);
  const auto send_heartbeat = [&] {
    channel.send({1, 0, Heartbeat{0, 1}});
  };
  send_heartbeat();  // t=0: before the window
  queue.schedule_at(150.0, send_heartbeat);  // inside: cut
  queue.schedule_at(250.0, send_heartbeat);  // after: healed
  queue.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(channel.fault_stats().partition_drops, 1u);
}

TEST(Channel, WildcardPartitionIsolatesOneEndpoint) {
  PartitionWindow w;
  w.b = 5;
  w.from_ms = 0.0;
  w.to_ms = 10.0;
  EXPECT_TRUE(w.cuts(3, 5, 1.0));
  EXPECT_TRUE(w.cuts(5, 3, 1.0));   // symmetric
  EXPECT_FALSE(w.cuts(3, 4, 1.0));  // pair not involving 5
  EXPECT_FALSE(w.cuts(3, 5, 10.0));  // window closed (half-open)
}

TEST(Channel, FaultSequenceIsSeedReproducible) {
  const auto run_once = [] {
    sim::EventQueue queue;
    ControlChannel channel(att(), queue);
    std::vector<std::pair<std::uint64_t, double>> deliveries;
    channel.attach(0, 0, [&](const Message& m) {
      deliveries.emplace_back(m.seq, queue.now());
    });
    channel.attach(1, 24, [](const Message&) {});
    ChannelFaultModel model;
    model.seed = 7;
    model.drop_probability = 0.3;
    model.duplicate_probability = 0.3;
    model.jitter_ms = 10.0;
    model.reorder_probability = 0.2;
    model.reorder_delay_ms = 40.0;
    channel.set_fault_model(model);
    for (int i = 0; i < 100; ++i) {
      channel.send({1, 0, Heartbeat{0, static_cast<std::uint64_t>(i)}});
    }
    queue.run();
    return std::pair{deliveries, channel.fault_stats()};
  };
  const auto [first, first_stats] = run_once();
  const auto [second, second_stats] = run_once();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_stats.injected_drops, second_stats.injected_drops);
  EXPECT_EQ(first_stats.injected_duplicates,
            second_stats.injected_duplicates);
  EXPECT_EQ(first_stats.reordered, second_stats.reordered);
  EXPECT_GT(first_stats.injected_drops, 0u);
  EXPECT_GT(first_stats.injected_duplicates, 0u);
}

TEST(Channel, DelayCacheInvalidationForcesRecompute) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  channel.attach(0, 0, [](const Message&) {});
  channel.attach(1, 24, [](const Message&) {});
  EXPECT_EQ(channel.cached_delay_pairs(), 0u);
  channel.send({1, 0, Heartbeat{0, 1}});
  const std::size_t populated = channel.cached_delay_pairs();
  EXPECT_GT(populated, 0u);
  channel.invalidate_delays();
  EXPECT_EQ(channel.cached_delay_pairs(), 0u);
  channel.send({1, 0, Heartbeat{0, 2}});
  EXPECT_EQ(channel.cached_delay_pairs(), populated);
  queue.run();
}

// ---------------------------------------------------------------------
// Full protocol runs
// ---------------------------------------------------------------------

TEST(ControlSimulation, SteadyStateHasOnlyHeartbeats) {
  ControlSimulation simulation(att(), pm_policy());
  const SimulationReport report = simulation.run(2000.0);
  EXPECT_FALSE(report.detected_at.has_value());  // nothing failed
  EXPECT_EQ(report.recovery_waves, 0u);
  EXPECT_EQ(report.adopted_switches, 0u);
  EXPECT_TRUE(report.all_flows_deliverable);
  ASSERT_TRUE(report.messages_by_kind.contains("heartbeat"));
  EXPECT_EQ(report.messages_by_kind.size(), 1u);  // heartbeats only
}

TEST(ControlSimulation, SingleFailureDetectedAndRecovered) {
  ControlSimulation simulation(att(), pm_policy());
  simulation.fail_controller_at(3, 500.0);  // C13
  const SimulationReport report = simulation.run(5000.0);

  // Detection within ~2 timeouts of the crash.
  ASSERT_TRUE(report.detected_at.has_value());
  EXPECT_GT(*report.detected_at, 500.0);
  EXPECT_LT(*report.detected_at, 500.0 + 2.5 * 200.0);
  // Exactly one recovery wave, fully converged shortly after detection.
  EXPECT_EQ(report.recovery_waves, 1u);
  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_GT(*report.converged_at, *report.detected_at);
  EXPECT_LT(*report.converged_at, *report.detected_at + 100.0);
  // The offline domain's switches were adopted and programmed.
  EXPECT_GT(report.adopted_switches, 0u);
  EXPECT_GT(report.flows_with_entries, 0u);
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_TRUE(report.messages_by_kind.contains("flow-mod"));
  EXPECT_EQ(report.messages_by_kind.at("flow-mod"),
            report.messages_by_kind.at("flow-mod-ack"));
}

TEST(ControlSimulation, AdoptedMastersMatchThePlan) {
  ControlSimulation simulation(att(), pm_policy());
  simulation.fail_controller_at(3, 500.0);
  simulation.run(5000.0);

  // The coordinator is the lowest-id survivor: controller 0.
  const auto& coordinator = simulation.controller(0);
  ASSERT_TRUE(coordinator.installed_plan().has_value());
  const core::RecoveryPlan& plan = *coordinator.installed_plan();
  for (const auto& [sw, adopter] : plan.mapping) {
    EXPECT_EQ(simulation.switch_agent(sw).master(), adopter)
        << "switch " << sw;
  }
}

TEST(ControlSimulation, SuccessiveFailuresRunIncrementally) {
  ControlSimulation simulation(att(), pm_policy());
  simulation.fail_controller_at(3, 500.0);   // C13 first
  simulation.fail_controller_at(4, 3000.0);  // C20 later
  const SimulationReport report = simulation.run(8000.0);

  EXPECT_GE(report.recovery_waves, 2u);
  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_GT(*report.converged_at, 3000.0);
  EXPECT_TRUE(report.all_flows_deliverable);
  // After both failures the coordinator's cumulative plan covers the
  // union of both domains.
  const auto& coordinator = simulation.controller(0);
  ASSERT_TRUE(coordinator.installed_plan().has_value());
  const sdwan::FailureState state(att(), {{3, 4}});
  EXPECT_TRUE(
      core::validate_plan(state, *coordinator.installed_plan()).empty());
}

TEST(ControlSimulation, DeadCoordinatorReplaced) {
  // Fail controller 0 (the would-be coordinator) plus controller 3:
  // controller 1 must take over coordination.
  ControlSimulation simulation(att(), pm_policy());
  simulation.fail_controller_at(0, 500.0);
  simulation.fail_controller_at(3, 500.0);
  const SimulationReport report = simulation.run(5000.0);
  EXPECT_GE(report.recovery_waves, 1u);
  EXPECT_TRUE(simulation.controller(1).installed_plan().has_value());
  EXPECT_FALSE(simulation.controller(0).alive());
  EXPECT_TRUE(report.all_flows_deliverable);
}

TEST(ControlSimulation, OrphanedSwitchesKeepForwarding) {
  // Even before/without recovery, the hybrid data plane keeps delivering
  // over the legacy tables.
  ControlSimulation simulation(att(), pm_policy());
  simulation.fail_controller_at(3, 500.0);
  // Stop the clock right after the crash, before detection.
  simulation.queue().run(600.0);
  for (const auto& f : att().flows()) {
    const auto trace = simulation.dataplane().trace(f.src, {f.src, f.dst});
    ASSERT_TRUE(trace.delivered) << trace.failure_reason;
  }
}

// ---------------------------------------------------------------------
// Recovery timeline: detection, distribution, convergence
// ---------------------------------------------------------------------

TEST(ControlPlaneTest, TimelineIsOrdered) {
  // Crash, then detection, then one wave from detection to its last ack.
  ControlSimulation simulation(att(), pm_policy());
  simulation.fail_controller_at(3, 500.0);  // C13
  const SimulationReport report = simulation.run(5000.0);
  ASSERT_TRUE(report.detected_at.has_value());
  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_GT(*report.detected_at, 500.0);
  EXPECT_GT(*report.converged_at, *report.detected_at);
  const obs::Histogram& waves =
      simulation.observability().metrics.histogram(
          "pm_wave_convergence_ms", "", {});
  ASSERT_EQ(waves.count(), 1u);
  EXPECT_DOUBLE_EQ(waves.sum(),
                   *report.converged_at - *report.detected_at);
}

TEST(ControlPlaneTest, EveryRecoveredFlowGetsATimestamp) {
  // Every flow PM recovers is programmed, with one RoleRequest per
  // adopted switch and one acked FlowMod per assignment that has a next
  // hop to pin.
  const sdwan::FailureState state(att(), {{3}});
  const core::RecoveryPlan plan = core::run_pm(state);
  std::uint64_t pinned = 0;
  for (const auto& [sw, flow] : plan.sdn_assignments) {
    const auto& path = att().flow(flow).path;
    if (path.back() != sw) ++pinned;
  }
  ControlSimulation simulation(att(), pm_policy());
  simulation.fail_controller_at(3, 500.0);
  const SimulationReport report = simulation.run(5000.0);
  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_EQ(report.flows_with_entries,
            core::evaluate_plan(state, plan).recovered_flow_count);
  EXPECT_EQ(report.messages_by_kind.at("role-request"),
            plan.mapping.size());
  EXPECT_EQ(report.messages_by_kind.at("flow-mod"), pinned);
  EXPECT_EQ(report.messages_by_kind.at("flow-mod-ack"), pinned);
}

TEST(ControlPlaneTest, DetectionTimeoutShiftsEverything) {
  // C13 and C20 crash together; detection fires exactly one detection
  // timeout after the crash, and convergence follows at a fixed offset.
  for (const double crash : {400.0, 500.0, 800.0}) {
    ControlSimulation simulation(att(), pm_policy());
    simulation.fail_controller_at(3, crash);
    simulation.fail_controller_at(4, crash);
    const SimulationReport report = simulation.run(5000.0);
    const double detected = crash + ctrl::kDetectionTimeoutMs;
    ASSERT_TRUE(report.detected_at.has_value()) << crash;
    ASSERT_TRUE(report.converged_at.has_value()) << crash;
    EXPECT_NEAR(*report.detected_at, detected, 1e-9) << crash;
    EXPECT_NEAR(*report.converged_at, detected + 22.288, 1e-3) << crash;
  }
}

TEST(ControlPlaneTest, MiddleLayerDelaysConvergenceExactly) {
  // A middle layer that adds X ms to every FlowMod (PG's per-message
  // cost) delays convergence by exactly X, and the RTT-derived
  // retransmission timeout absorbs it: no retransmission fires.
  const std::vector<std::pair<double, double>> expected = {
      {0.0, 711.282}, {2.0, 713.282}, {10.0, 721.282}};
  for (const auto& [middle_layer_ms, converged] : expected) {
    const double extra = middle_layer_ms;
    ControlSimulation simulation(
        att(), [extra](const sdwan::FailureState& state,
                       const core::RecoveryPlan* previous) {
          core::PmOptions opts;
          opts.seed = previous;
          core::RecoveryPlan plan = core::run_pm(state, opts);
          plan.middle_layer_ms = extra;
          return plan;
        });
    simulation.fail_controller_at(3, 500.0);
    const SimulationReport report = simulation.run(5000.0);
    ASSERT_TRUE(report.converged_at.has_value()) << middle_layer_ms;
    EXPECT_NEAR(*report.converged_at, converged, 1e-3) << middle_layer_ms;
    EXPECT_EQ(report.retransmissions, 0u) << middle_layer_ms;
    EXPECT_TRUE(report.all_flows_deliverable) << middle_layer_ms;
  }
}

// ---------------------------------------------------------------------
// Reliable delivery under channel faults
// ---------------------------------------------------------------------

TEST(ControlSimulation, FailureEventInvalidatesDelayCache) {
  ControlSimulation simulation(att(), pm_policy());
  simulation.fail_controller_at(3, 500.0);
  // Probe scheduled AFTER fail_controller_at: at t=500 it runs after the
  // failure event (stable tie-break) but before any same-instant beats
  // scheduled later during the run, observing the just-invalidated cache.
  std::size_t at_failure = static_cast<std::size_t>(-1);
  simulation.queue().schedule_at(500.0, [&] {
    at_failure = simulation.channel().cached_delay_pairs();
  });
  simulation.queue().run(400.0);
  EXPECT_GT(simulation.channel().cached_delay_pairs(), 0u);
  simulation.queue().run(600.0);
  EXPECT_EQ(at_failure, 0u);
}

TEST(ControlSimulation, DuplicatedDeliveriesAreSuppressedNotReapplied) {
  ControlSimulation clean(att(), pm_policy());
  clean.fail_controller_at(3, 500.0);
  const SimulationReport clean_report = clean.run(5000.0);

  ControlSimulation noisy(att(), pm_policy());
  ChannelFaultModel faults;
  faults.duplicate_probability = 1.0;  // every message delivered twice
  noisy.set_fault_model(faults);
  noisy.fail_controller_at(3, 500.0);
  const SimulationReport noisy_report = noisy.run(5000.0);

  EXPECT_GT(noisy_report.duplicates_suppressed, 0u);
  EXPECT_EQ(clean_report.duplicates_suppressed, 0u);
  EXPECT_TRUE(noisy_report.all_flows_deliverable);
  // Dedup means duplication changes no protocol outcome: same entries
  // installed, no double-applied flow-mods.
  EXPECT_EQ(noisy_report.flows_with_entries,
            clean_report.flows_with_entries);
  std::uint64_t clean_mods = 0;
  std::uint64_t noisy_mods = 0;
  for (int s = 0; s < att().switch_count(); ++s) {
    clean_mods += clean.switch_agent(s).flow_mods_applied();
    noisy_mods += noisy.switch_agent(s).flow_mods_applied();
    EXPECT_EQ(noisy.dataplane().at(s).flow_table_size(),
              clean.dataplane().at(s).flow_table_size())
        << "switch " << s;
  }
  EXPECT_EQ(noisy_mods, clean_mods);
}

TEST(ControlSimulation, ChaosTwoFailuresStillConverge) {
  // The acceptance scenario: 10% loss + 20 ms jitter (+ a little
  // duplication), fixed seed, two successive controller failures. The
  // reliable-delivery layer must still converge the waves and keep every
  // flow deliverable, with the repair work visible in the report.
  ctrl::ControllerConfig config;
  config.suspicion_checks = 3;  // hysteresis sized for the jitter
  ControlSimulation simulation(att(), pm_policy(), config);
  ChannelFaultModel faults;
  faults.seed = 42;
  faults.drop_probability = 0.10;
  faults.jitter_ms = 20.0;
  faults.duplicate_probability = 0.02;
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(3, 500.0);
  simulation.fail_controller_at(4, 3000.0);
  const SimulationReport report = simulation.run(20000.0);

  ASSERT_TRUE(report.detected_at.has_value());
  EXPECT_GT(*report.detected_at, 500.0);
  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_GT(*report.converged_at, 3000.0);
  EXPECT_GE(report.recovery_waves, 2u);
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_EQ(report.degraded_flows, 0u);
  // The repair machinery did real work and the report shows it.
  EXPECT_GT(report.injected_drops, 0u);
  EXPECT_GT(report.retransmissions, 0u);
  EXPECT_GT(report.duplicates_suppressed, 0u);
  // Lost flow-mods were retransmitted until acked: the plan is fully
  // installed despite the lossy channel.
  const auto& coordinator = simulation.controller(0);
  ASSERT_TRUE(coordinator.installed_plan().has_value());
  for (const auto& [sw, adopter] : coordinator.installed_plan()->mapping) {
    EXPECT_EQ(simulation.switch_agent(sw).master(), adopter)
        << "switch " << sw;
  }
}

TEST(ControlSimulation, ChaosRunsAreSeedDeterministic) {
  const auto run_once = [] {
    ctrl::ControllerConfig config;
    config.suspicion_checks = 3;
    ControlSimulation simulation(att(), pm_policy(), config);
    ChannelFaultModel faults;
    faults.seed = 1234;
    faults.drop_probability = 0.10;
    faults.jitter_ms = 20.0;
    faults.duplicate_probability = 0.05;
    simulation.set_fault_model(faults);
    simulation.fail_controller_at(3, 500.0);
    simulation.fail_controller_at(4, 3000.0);
    return simulation.run(20000.0);
  };
  const SimulationReport a = run_once();
  const SimulationReport b = run_once();
  EXPECT_EQ(a.detected_at, b.detected_at);
  EXPECT_EQ(a.converged_at, b.converged_at);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  EXPECT_EQ(a.injected_drops, b.injected_drops);
  EXPECT_EQ(a.injected_duplicates, b.injected_duplicates);
  EXPECT_EQ(a.degraded_flows, b.degraded_flows);
}

TEST(ControlSimulation, PartitionCausesSpuriousDetectionThenRecovers) {
  // Cut the heartbeat path between controllers 0 and 1 for 600 ms: both
  // are alive the whole time, so the detector's firing is spurious and
  // must be recognized as such when the heartbeats come back.
  ControlSimulation simulation(att(), pm_policy());
  ChannelFaultModel faults;
  faults.partitions.push_back({controller_endpoint(att(), 0),
                               controller_endpoint(att(), 1), 1000.0,
                               1600.0});
  simulation.set_fault_model(faults);
  const SimulationReport report = simulation.run(5000.0);

  EXPECT_GT(report.partition_drops, 0u);
  EXPECT_GE(report.spurious_detections, 1u);
  EXPECT_TRUE(simulation.controller(0).alive());
  EXPECT_TRUE(simulation.controller(1).alive());
  // Once heartbeats resumed, nobody stays falsely suspected.
  EXPECT_FALSE(simulation.controller(0).suspected().contains(1));
  EXPECT_FALSE(simulation.controller(1).suspected().contains(0));
  EXPECT_TRUE(report.all_flows_deliverable);
}

TEST(ControlSimulation, HysteresisRidesOutShortPartitions) {
  // A shorter 400 ms partition with 6-check hysteresis: heartbeats
  // resume (and reset the miss count) before six consecutive detector
  // checks ever miss, so the detector never fires at all.
  ctrl::ControllerConfig config;
  config.suspicion_checks = 6;
  ControlSimulation simulation(att(), pm_policy(), config);
  ChannelFaultModel faults;
  faults.partitions.push_back({controller_endpoint(att(), 0),
                               controller_endpoint(att(), 1), 1000.0,
                               1400.0});
  simulation.set_fault_model(faults);
  const SimulationReport report = simulation.run(5000.0);
  EXPECT_EQ(report.spurious_detections, 0u);
  EXPECT_EQ(report.recovery_waves, 0u);
  EXPECT_FALSE(report.detected_at.has_value());
}

TEST(ControlSimulation, ExhaustedRetriesDegradeInsteadOfWedging) {
  // Permanently cut every switch of the failed controller's domain off
  // the control plane: RoleRequests and FlowMods to them can never be
  // delivered, so their retries must exhaust, degrade the affected
  // flows/switches, and still let the wave converge.
  ControlSimulation simulation(att(), pm_policy());
  ChannelFaultModel faults;
  for (sdwan::SwitchId s : att().controller(3).domain) {
    faults.partitions.push_back(
        {PartitionWindow::kAnyEndpoint, switch_endpoint(s), 0.0, 1e12});
  }
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(3, 500.0);
  const SimulationReport report = simulation.run(20000.0);

  EXPECT_GE(report.degraded_switches, 1u);
  EXPECT_GE(report.degraded_flows, 1u);
  EXPECT_GT(report.retransmissions, 0u);
  // The wave converged (modulo the explicitly-degraded messages) rather
  // than hanging forever on unreachable switches...
  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_GT(*report.converged_at, 0.0);
  // ...and the hybrid data plane still delivers everything over the
  // legacy tables.
  EXPECT_TRUE(report.all_flows_deliverable);
}

// ---------------------------------------------------------------------
// Transactional recovery: epochs, mid-wave failures, rollback, audit
// ---------------------------------------------------------------------

TEST(TransactionalRecovery, CoordinatorKilledMidWaveFailsOverAndReplans) {
  // Controller 3 fails at t=500; the coordinator that runs the wave is
  // killed at t=850, inside the recovery window, under loss + jitter.
  // The lowest surviving id must take over, replan against the updated
  // failure set, and commit with a clean consistency audit.
  ctrl::ControllerConfig config;
  config.suspicion_checks = 3;
  ControlSimulation simulation(att(), pm_policy(), config);
  ChannelFaultModel faults;
  faults.drop_probability = 0.05;
  faults.jitter_ms = 20.0;
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(3, 500.0);
  simulation.fail_controller_at(0, 850.0);  // the coordinator
  const SimulationReport report = simulation.run(15000.0);

  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_GE(report.coordinator_failovers, 1u);
  EXPECT_TRUE(report.audit_clean) << report.audit_violations;
  const SharedRecoveryState& shared = simulation.shared_state();
  EXPECT_EQ(shared.phase, WavePhase::kCommitted);
  ASSERT_TRUE(shared.committed_plan.has_value());
  EXPECT_EQ(shared.committed_epoch, shared.wave_epoch);
  // The successor, not the dead node, owns the committed wave.
  EXPECT_NE(shared.coordinator, 0);
  EXPECT_TRUE(simulation.controller(shared.coordinator).alive());
}

TEST(TransactionalRecovery, AdopterKilledMidWaveIsReplannedAround) {
  // Kill a wave-1 ADOPTER (not the coordinator) mid-wave: its slice can
  // never prepare, the detector fires, and the coordinator's next wave
  // must re-home its switches and clean up any entries the dead
  // adopter's assignments left behind.
  sdwan::FailureScenario scenario;
  scenario.failed = {3};
  const sdwan::FailureState state(att(), scenario);
  const core::RecoveryPlan wave1 = core::run_pm(state);
  sdwan::ControllerId adopter = -1;
  for (const auto& [sw, j] : wave1.mapping) {
    if (j != 0) adopter = std::max(adopter, j);
  }
  ASSERT_GE(adopter, 0) << "wave-1 plan uses only the coordinator";

  ctrl::ControllerConfig config;
  config.suspicion_checks = 3;
  ControlSimulation simulation(att(), pm_policy(), config);
  ChannelFaultModel faults;
  faults.drop_probability = 0.05;
  faults.jitter_ms = 20.0;
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(3, 500.0);
  simulation.fail_controller_at(adopter, 850.0);
  const SimulationReport report = simulation.run(15000.0);

  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_TRUE(report.audit_clean) << report.audit_violations;
  const SharedRecoveryState& shared = simulation.shared_state();
  EXPECT_EQ(shared.phase, WavePhase::kCommitted);
  ASSERT_TRUE(shared.committed_plan.has_value());
  // Nothing in the committed plan may reference the dead adopter.
  for (const auto& [sw, j] : shared.committed_plan->mapping) {
    EXPECT_NE(j, adopter);
    EXPECT_NE(j, 3);
  }
}

TEST(TransactionalRecovery, CorrelatedMidWaveKillsStillConverge) {
  // Coordinator AND an adopter die at the same instant mid-wave — the
  // correlated-failure case. A single surviving successor must absorb
  // both and commit cleanly.
  sdwan::FailureScenario scenario;
  scenario.failed = {3};
  const sdwan::FailureState state(att(), scenario);
  const core::RecoveryPlan wave1 = core::run_pm(state);
  sdwan::ControllerId adopter = -1;
  for (const auto& [sw, j] : wave1.mapping) {
    if (j != 0) adopter = std::max(adopter, j);
  }
  ASSERT_GE(adopter, 0);

  ctrl::ControllerConfig config;
  config.suspicion_checks = 3;
  ControlSimulation simulation(att(), pm_policy(), config);
  ChannelFaultModel faults;
  faults.drop_probability = 0.05;
  faults.jitter_ms = 20.0;
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(3, 500.0);
  simulation.fail_controller_at(0, 850.0);
  simulation.fail_controller_at(adopter, 850.0);
  const SimulationReport report = simulation.run(15000.0);

  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_GE(report.coordinator_failovers, 1u);
  if (!report.audit_clean) {
    for (const auto& v : simulation.audit().violations) {
      ADD_FAILURE() << v.invariant << ": " << v.detail;
    }
  }
  EXPECT_EQ(simulation.shared_state().phase, WavePhase::kCommitted);
}

TEST(TransactionalRecovery, DeadAdopterIsTakenOverNotSpokenFor) {
  // C2 fails at 500 ms and C6, a wave-1 adopter, at 850 ms, while its
  // installs are in flight. Their retries exhaust against the detached
  // endpoint and roll the flows back; the removals must come from a
  // live controller that re-adopts the switch, never from the dead
  // adopter's endpoint (the channel throws on that).
  const auto at_node = [](int node) {
    for (sdwan::ControllerId j = 0; j < att().controller_count(); ++j) {
      if (att().controller(j).location == node) return j;
    }
    return sdwan::ControllerId{-1};
  };
  ctrl::ControllerConfig config;
  config.suspicion_checks = 3;
  ControlSimulation simulation(att(), pm_policy(), config);
  ChannelFaultModel faults;
  faults.jitter_ms = 5.0;
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(at_node(2), 500.0);
  simulation.fail_controller_at(at_node(6), 850.0);
  SimulationReport report;
  ASSERT_NO_THROW(report = simulation.run(10000.0));

  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_GE(report.rollback_removals, 1u);
  EXPECT_EQ(report.degraded_flows, 0u);
  if (!report.audit_clean) {
    for (const auto& v : simulation.audit().violations) {
      ADD_FAILURE() << v.invariant << ": " << v.detail;
    }
  }
  // Every flow the committed plan recovers is programmed.
  const sdwan::FailureState state(att(), {{at_node(2), at_node(6)}});
  ASSERT_TRUE(simulation.shared_state().committed_plan.has_value());
  EXPECT_EQ(report.flows_with_entries,
            core::evaluate_plan(state,
                                *simulation.shared_state().committed_plan)
                .recovered_flow_count);
}

TEST(TransactionalRecovery, RetryExhaustionRollsBackToLegacyNotMixed) {
  // Permanently cut SOME of the failed controller's switches off the
  // control plane: installs to them exhaust, and transactional rollback
  // must take each affected flow back to legacy wholesale — removing
  // the siblings that DID land — rather than leaving a half-programmed
  // flow. The audit must come back clean (degraded is legal; mixed
  // state is not).
  ControlSimulation simulation(att(), pm_policy());
  ChannelFaultModel faults;
  const auto& domain = att().controller(3).domain;
  ASSERT_GE(domain.size(), 2u);
  std::vector<sdwan::SwitchId> cut(domain.begin(),
                                   domain.begin() + 2);
  for (const sdwan::SwitchId s : cut) {
    faults.partitions.push_back(
        {PartitionWindow::kAnyEndpoint, switch_endpoint(s), 0.0, 1e12});
  }
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(3, 500.0);
  const SimulationReport report = simulation.run(20000.0);

  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_GE(report.degraded_flows, 1u);
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_TRUE(report.audit_clean) << report.audit_violations;
  const SharedRecoveryState& shared = simulation.shared_state();
  EXPECT_GE(shared.rolled_back_flows.size(), 1u);
  // No entry for a rolled-back flow survives anywhere: the reachable
  // siblings were removed, the unreachable ones never landed.
  for (const sdwan::FlowId flow : shared.rolled_back_flows) {
    const auto& f = att().flow(flow);
    for (int s = 0; s < att().switch_count(); ++s) {
      EXPECT_FALSE(simulation.switch_agent(s).entry_epochs().contains(
          {f.src, f.dst}))
          << "rolled-back flow " << flow << " still programmed on switch "
          << s;
    }
  }
}

TEST(TransactionalRecovery, SwitchDiscardsStaleEpochMessages) {
  // Unit-level: drive a SwitchAgent over a raw channel. Messages below
  // the switch's epoch high-water mark are discarded (no reply, no ack,
  // no application); replace-on-install keeps one entry per match.
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  sdwan::Dataplane dataplane(att().topology(), sdwan::RoutingMode::kHybrid);
  SwitchAgent agent(0, dataplane.at(0), channel);
  agent.attach();
  const EndpointId ctrl_ep = controller_endpoint(att(), 0);
  std::size_t replies = 0;
  std::size_t acks = 0;
  channel.attach(ctrl_ep, att().controller(0).location,
                 [&](const Message& m) {
                   if (std::holds_alternative<RoleReply>(m.body)) ++replies;
                   if (std::holds_alternative<FlowModAck>(m.body)) ++acks;
                 });

  const auto send_role = [&](std::uint64_t epoch) {
    Message m;
    m.from = ctrl_ep;
    m.to = switch_endpoint(0);
    m.body = RoleRequest{0, epoch};
    m.seq = channel.send(m);
  };
  const auto send_mod = [&](std::uint64_t epoch, std::uint64_t xid,
                            sdwan::SwitchId next_hop) {
    Message m;
    m.from = ctrl_ep;
    m.to = switch_endpoint(0);
    FlowMod body;
    body.entry = {10, {0, 5}, next_hop};
    body.xid = xid;
    body.epoch = epoch;
    m.body = body;
    m.seq = channel.send(m);
  };

  send_role(2);
  queue.run();
  EXPECT_EQ(agent.epoch(), 2u);
  EXPECT_EQ(replies, 1u);

  send_role(1);  // stale: a deposed master's retransmission
  queue.run();
  EXPECT_EQ(agent.stale_discarded(), 1u);
  EXPECT_EQ(replies, 1u);  // no reply for the stale request
  EXPECT_EQ(agent.epoch(), 2u);

  send_mod(1, 100, 1);  // stale mod: discarded, NOT acked
  queue.run();
  EXPECT_EQ(agent.stale_discarded(), 2u);
  EXPECT_EQ(acks, 0u);
  EXPECT_EQ(agent.entry_epochs().size(), 0u);

  send_mod(2, 101, 1);  // current epoch: applied + acked
  queue.run();
  EXPECT_EQ(acks, 1u);
  ASSERT_TRUE(agent.entry_epochs().contains({0, 5}));
  EXPECT_EQ(agent.entry_epochs().at({0, 5}), 2u);

  // A later wave re-programs the same match: replace, don't stack.
  send_role(3);
  send_mod(3, 102, 2);
  queue.run();
  EXPECT_EQ(acks, 2u);
  EXPECT_EQ(agent.entry_epochs().size(), 1u);
  EXPECT_EQ(agent.entry_epochs().at({0, 5}), 3u);
  EXPECT_EQ(dataplane.at(0).flow_table_size(), 1u);
}

TEST(TransactionalRecovery, AuditorFlagsTamperedState) {
  // Negative test: fabricate an inconsistent post-recovery state and
  // check the auditor names each broken invariant.
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  sdwan::Dataplane dataplane(att().topology(), sdwan::RoutingMode::kHybrid);
  std::vector<std::unique_ptr<SwitchAgent>> agents;
  for (int s = 0; s < att().switch_count(); ++s) {
    agents.push_back(
        std::make_unique<SwitchAgent>(s, dataplane.at(s), channel));
    agents.back()->attach();
  }
  const EndpointId ctrl_ep = controller_endpoint(att(), 1);
  channel.attach(ctrl_ep, att().controller(1).location,
                 [](const Message&) {});
  // Controller 1 masters switch 0 and installs one entry at epoch 1,
  // pinning the real 0->5 flow to its actual path successor (so the
  // "honest" audit below has nothing to complain about).
  sdwan::FlowId pinned = -1;
  sdwan::SwitchId next_hop = -1;
  for (const auto& f : att().flows()) {
    if (f.src == 0 && f.dst == 5 && f.path.size() >= 2) {
      pinned = f.id;
      next_hop = f.path[1];
      break;
    }
  }
  ASSERT_GE(pinned, 0);
  Message role;
  role.from = ctrl_ep;
  role.to = switch_endpoint(0);
  role.body = RoleRequest{1, 1};
  role.seq = channel.send(role);
  Message mod;
  mod.from = ctrl_ep;
  mod.to = switch_endpoint(0);
  FlowMod body;
  body.entry = {10, {0, 5}, next_hop};
  body.xid = 7;
  body.epoch = 1;
  mod.body = body;
  mod.seq = channel.send(mod);
  queue.run();

  // Commit a plan that (a) expects switch 0 mastered by controller 2,
  // (b) contains no assignment for the installed entry, at epoch 2 —
  // and declare controller 1 (the actual master) dead.
  SharedRecoveryState shared;
  shared.committed_epoch = 2;
  core::RecoveryPlan plan;
  plan.mapping[0] = 2;
  shared.committed_plan = plan;
  std::vector<const SwitchAgent*> ptrs;
  for (const auto& a : agents) ptrs.push_back(a.get());
  std::vector<bool> alive(
      static_cast<std::size_t>(att().controller_count()), true);
  alive[1] = false;

  const AuditReport audit =
      audit_recovery(att(), dataplane, ptrs, alive, shared);
  EXPECT_FALSE(audit.clean());
  const auto counts = audit.by_invariant();
  EXPECT_GE(counts.count("orphaned-master"), 1u);  // master 1 is dead
  EXPECT_GE(counts.count("stale-epoch"), 1u);      // entry epoch 1 != 2
  EXPECT_GE(counts.count("unplanned-entry"), 1u);  // not in the plan
  EXPECT_GE(counts.count("wrong-master"), 1u);     // plan says 2, is 1

  // The same state audits clean once the tampering is undone.
  SharedRecoveryState consistent;
  consistent.committed_epoch = 1;
  core::RecoveryPlan honest;
  honest.mapping[0] = 1;
  honest.sdn_assignments.push_back({0, pinned});
  consistent.committed_plan = honest;
  std::vector<bool> all_alive(
      static_cast<std::size_t>(att().controller_count()), true);
  const AuditReport ok =
      audit_recovery(att(), dataplane, ptrs, all_alive, consistent);
  EXPECT_TRUE(ok.clean()) << ok.violations.size();
}

// ---------------------------------------------------------------------
// Golden chaos cells
//
// Byte identity of the control-plane protocol: each line of
// tests/data/ctrl_chaos_digests.txt is one cell of the benchmark's chaos
// settings (transactional protocol, 5% loss, 2% duplication, 5 ms
// jitter, suspicion_checks = 3, PM seeded with the previous plan) with
// two kills: the first victim at 500 ms, the second a seeded 100-600 ms
// later, inside the recovery wave. Cell i kills the ordered pair
// i % 30 of ATT's six controllers, so every (first, second) pair --
// coordinators, adopters and bystanders alike -- appears. The digest
// covers every SimulationReport field plus the registry's Prometheus
// export (detailed metrics on, so every delivery latency counts).
// ---------------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Every SimulationReport field, doubles by their bit patterns.
std::string report_text(const SimulationReport& r) {
  std::ostringstream out;
  const auto time = [&out](const std::optional<double>& t) {
    std::uint64_t bits = 0;
    if (t) std::memcpy(&bits, &*t, sizeof bits);
    out << (t ? hex64(bits) : std::string("none")) << '\n';
  };
  time(r.detected_at);
  time(r.converged_at);
  out << r.messages_sent << '\n';
  for (const auto& [kind, count] : r.messages_by_kind) {
    out << kind << '=' << count << '\n';
  }
  out << r.recovery_waves << ' ' << r.flows_with_entries << ' '
      << r.all_flows_deliverable << ' ' << r.adopted_switches << ' '
      << r.retransmissions << ' ' << r.duplicates_suppressed << ' '
      << r.spurious_detections << ' ' << r.degraded_flows << ' '
      << r.degraded_switches << ' ' << r.injected_drops << ' '
      << r.injected_duplicates << ' ' << r.reordered_messages << ' '
      << r.partition_drops << ' ' << r.stale_discarded << ' '
      << r.rollback_removals << ' ' << r.waves_aborted << ' '
      << r.coordinator_failovers << ' ' << r.audit_violations << ' '
      << r.audit_clean << '\n';
  return out.str();
}

/// The ordered victim pair, second-kill time and fault seed of cell i.
struct ChaosCell {
  sdwan::ControllerId first = -1;
  sdwan::ControllerId second = -1;
  double second_kill_ms = 0.0;
  std::uint64_t fault_seed = 0;
};

ChaosCell chaos_cell(std::uint64_t index) {
  const int m = att().controller_count();
  const auto pair = static_cast<int>(index % static_cast<std::uint64_t>(
                                                 m * (m - 1)));
  ChaosCell cell;
  cell.first = pair / (m - 1);
  cell.second = pair % (m - 1);
  if (cell.second >= cell.first) ++cell.second;
  const std::uint64_t h = splitmix64(index);
  cell.second_kill_ms =
      600.0 + static_cast<double>(h % 500'000) / 1000.0;
  cell.fault_seed = splitmix64(h ^ 0x5eedULL);
  return cell;
}

/// One golden line: index, victims, second-kill time, digest.
std::string chaos_cell_line(std::uint64_t index) {
  const ChaosCell cell = chaos_cell(index);
  ControllerConfig config;
  config.suspicion_checks = 3;
  ControlSimulation simulation(att(), pm_policy(), config);
  simulation.observability().detailed_metrics = true;
  ChannelFaultModel faults;
  faults.seed = cell.fault_seed;
  faults.drop_probability = 0.05;
  faults.duplicate_probability = 0.02;
  faults.jitter_ms = 5.0;
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(cell.first, 500.0);
  simulation.fail_controller_at(cell.second, cell.second_kill_ms);
  const SimulationReport report = simulation.run(10000.0);
  std::ostringstream prometheus;
  simulation.observability().metrics.write_prometheus(prometheus);
  char head[64];
  std::snprintf(head, sizeof head, "%llu %d,%d %.3f ",
                static_cast<unsigned long long>(index), cell.first,
                cell.second, cell.second_kill_ms);
  return head + hex64(fnv1a64(report_text(report) + prometheus.str()));
}

/// The non-comment lines of a golden file in tests/data/.
std::vector<std::string> golden_lines(const std::string& name) {
  std::istringstream in(read_data_file(name));
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') out.push_back(line);
  }
  return out;
}

void expect_chaos_digests(std::size_t cells) {
  const auto lines = golden_lines("ctrl_chaos_digests.txt");
  ASSERT_EQ(lines.size(), 1024u);
  for (std::size_t i = 0; i < cells; ++i) {
    EXPECT_EQ(chaos_cell_line(i), lines[i]);
  }
}

TEST(CtrlGolden, ChaosCellDigests) { expect_chaos_digests(64); }

// All 1024 cells (about 10 s in Release); CI runs it with
// --gtest_also_run_disabled_tests.
TEST(CtrlGolden, DISABLED_ChaosCellDigestsAll) {
  expect_chaos_digests(1024);
}

// ---------------------------------------------------------------------
// Golden traces
//
// Byte identity of the protocol's exports: each line of
// tests/data/ctrl_trace_digests.txt holds the FNV-1a-64 digests of the
// JSONL trace, the Chrome trace and the Prometheus export of one traced
// run (tracer and detailed metrics on), the two runs CI makes with
// examples/protocol_trace:
//  * fail-13-20: C13 dies at 500 ms, C20 at 3000 ms, fault-free;
//  * kill-13-0: C13 dies at 500 ms and controller 0 at 850 ms, inside
//    the recovery wave, over 5% loss and 20 ms jitter (fault seed 42),
//    suspicion_checks = 3.
// ---------------------------------------------------------------------

std::string trace_digest_line(const std::string& name,
                              const std::vector<std::pair<int, double>>& kills,
                              const ChannelFaultModel& faults,
                              const ControllerConfig& config) {
  ControlSimulation simulation(att(), pm_policy(), config);
  simulation.set_fault_model(faults);
  simulation.observability().tracer.set_enabled(true);
  simulation.observability().detailed_metrics = true;
  for (const auto& [controller, at_ms] : kills) {
    simulation.fail_controller_at(controller, at_ms);
  }
  simulation.run(10000.0);
  const obs::Context& obs = simulation.observability();
  std::ostringstream jsonl, chrome, prometheus;
  obs.tracer.write_jsonl(jsonl);
  obs.tracer.write_chrome_trace(chrome);
  obs.metrics.write_prometheus(prometheus);
  return name + ' ' + hex64(fnv1a64(jsonl.str())) + ' ' +
         hex64(fnv1a64(chrome.str())) + ' ' +
         hex64(fnv1a64(prometheus.str()));
}

TEST(CtrlGolden, TraceDigests) {
  const auto failed = sdwan::FailureScenario::parse(att(), "13,20").failed;
  ASSERT_EQ(failed.size(), 2u);
  ChannelFaultModel lossy;
  lossy.seed = 42;
  lossy.drop_probability = 0.05;
  lossy.jitter_ms = 20.0;
  ControllerConfig patient;
  patient.suspicion_checks = 3;
  const std::vector<std::string> lines = {
      trace_digest_line("fail-13-20", {{failed[0], 500.0}, {failed[1], 3000.0}},
                        {}, {}),
      trace_digest_line("kill-13-0", {{failed[0], 500.0}, {0, 850.0}}, lossy,
                        patient)};
  EXPECT_EQ(lines, golden_lines("ctrl_trace_digests.txt"));
}

// ---------------------------------------------------------------------
// Kill-schedule property
//
// Seeded draws of 1-3 kills of distinct victims -- any controller,
// coordinator or not -- the first at 500 ms and the rest 0-1000 ms
// after it, crossed with channel loss, duplication and jitter. Whatever
// the schedule, the protocol must not throw, must converge, must audit
// clean and must keep every flow deliverable.
// ---------------------------------------------------------------------

struct KillSchedule {
  std::vector<std::pair<sdwan::ControllerId, double>> kills;
  ChannelFaultModel faults;
};

KillSchedule kill_schedule(std::uint64_t index) {
  std::uint64_t h = splitmix64(0x6b696c6cULL + index);
  const auto draw = [&h](std::uint64_t n) {
    h = splitmix64(h);
    return h % n;
  };
  KillSchedule s;
  std::vector<sdwan::ControllerId> victims;
  for (sdwan::ControllerId j = 0; j < att().controller_count(); ++j) {
    victims.push_back(j);
  }
  const std::size_t kills = 1 + draw(3);
  for (std::size_t k = 0; k < kills; ++k) {
    const std::size_t pick = k + draw(victims.size() - k);
    std::swap(victims[k], victims[pick]);
    const double at =
        k == 0 ? 500.0 : 500.0 + static_cast<double>(draw(1'000'001)) / 1000.0;
    s.kills.emplace_back(victims[k], at);
  }
  const double losses[] = {0.0, 0.05, 0.10};
  const double dups[] = {0.0, 0.02, 0.05};
  const double jitters[] = {0.0, 5.0, 20.0};
  s.faults.seed = draw(1ULL << 62);
  s.faults.drop_probability = losses[draw(3)];
  s.faults.duplicate_probability = dups[draw(3)];
  s.faults.jitter_ms = jitters[draw(3)];
  return s;
}

void expect_kill_schedule_recovers(std::uint64_t i) {
  const KillSchedule s = kill_schedule(i);
  std::ostringstream label;
  label << "cell " << i << ": loss " << s.faults.drop_probability
        << ", dup " << s.faults.duplicate_probability << ", jitter "
        << s.faults.jitter_ms << ", kills";
  for (const auto& [j, at] : s.kills) label << ' ' << j << '@' << at;
  ControllerConfig config;
  config.suspicion_checks = 3;
  ControlSimulation simulation(att(), pm_policy(), config);
  simulation.set_fault_model(s.faults);
  for (const auto& [j, at] : s.kills) simulation.fail_controller_at(j, at);
  // A spurious suspicion (heavy loss can starve a detector) may start
  // a wave just before the horizon; give a wave still preparing there
  // the time to commit before judging the end state.
  SimulationReport report;
  double until = 20000.0;
  ASSERT_NO_THROW(report = simulation.run(until)) << label.str();
  while (simulation.shared_state().phase == WavePhase::kPreparing &&
         until < 60000.0) {
    until += 5000.0;
    ASSERT_NO_THROW(report = simulation.run(until)) << label.str();
  }
  EXPECT_TRUE(report.converged_at.has_value()) << label.str();
  EXPECT_TRUE(report.all_flows_deliverable) << label.str();
  EXPECT_TRUE(report.audit_clean) << label.str();
  if (!report.audit_clean) {
    for (const auto& v : simulation.audit().violations) {
      ADD_FAILURE() << label.str() << ": " << v.invariant << ": "
                    << v.detail;
    }
  }
}

TEST(KillScheduleProperty, SeededSchedulesRecover) {
  for (std::uint64_t i = 0; i < 24; ++i) expect_kill_schedule_recovers(i);
}

TEST(KillScheduleProperty, DeadMastersSwitchesAreReclaimed) {
  // Third kills inside a later wave: the dying adopter is granted a
  // switch by a RoleRequest still in flight (cell 269), or programs one
  // the next plan leaves out (cell 508). The next wave must take such
  // switches over and resync them even though its mapping omits them.
  expect_kill_schedule_recovers(269);
  expect_kill_schedule_recovers(508);
}

// The full property set (about 5 s in Release); CI runs it with
// --gtest_also_run_disabled_tests.
TEST(KillScheduleProperty, DISABLED_SeededSchedulesRecoverAll) {
  for (std::uint64_t i = 0; i < 1000; ++i) expect_kill_schedule_recovers(i);
}

}  // namespace
}  // namespace pm::ctrl
