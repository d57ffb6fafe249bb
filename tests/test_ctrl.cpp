#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/metrics.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "golden.hpp"

namespace pm::ctrl {
namespace {

using golden::fnv1a64;
using golden::hex64;
using golden::read_data_file;

const sdwan::Network& att() {
  static const sdwan::Network net = core::make_att_network();
  return net;
}

/// Endpoint of controller 3, located at node 13 (C13, Dallas).
EndpointId c13() { return controller_endpoint(att(), 3); }

/// The switch's flow-table entry matching exactly (src, dst), or nullptr.
const sdwan::FlowEntry* entry_for(const sdwan::HybridSwitch& sw,
                                  sdwan::SwitchId src, sdwan::SwitchId dst) {
  for (const sdwan::FlowEntry& e : sw.flow_table()) {
    if (e.match.src == src && e.match.dst == dst) return &e;
  }
  return nullptr;
}

/// A seeded channel with loss and duplication probabilities and jitter.
ChannelFaultModel channel_faults(double drop, double duplicate,
                                 double jitter_ms, std::uint64_t seed = 1) {
  ChannelFaultModel faults;
  faults.seed = seed;
  faults.drop_probability = drop;
  faults.duplicate_probability = duplicate;
  faults.jitter_ms = jitter_ms;
  return faults;
}

/// Three missed checks confirm a suspicion: hysteresis sized for jitter.
ControllerConfig patient_config() {
  ControllerConfig config;
  config.suspicion_checks = 3;
  return config;
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
  channel.attach(c13(), 13, [&](const Message&) {});
  Message m;
  m.from = c13();
  m.to = 0;
  m.body = Heartbeat{0, 1};
  channel.send(m);
  queue.run();
  // Controller C13 (Dallas) to switch 0 (New York): positive, finite,
  // exactly the network's D_ij.
  EXPECT_GT(received_at, 0.0);
  EXPECT_EQ(received_at, att().delay_ms(0, 3));
  EXPECT_DOUBLE_EQ(channel.path_delay_ms(c13(), 0), att().delay_ms(0, 3));
  EXPECT_DOUBLE_EQ(channel.path_delay_ms(0, c13()), att().delay_ms(0, 3));
  EXPECT_EQ(channel.messages_sent(), 1u);
}

TEST(Channel, MessageWithoutControllerEndThrows) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  channel.attach(0, 0, [](const Message&) {});
  channel.attach(1, 1, [](const Message&) {});
  EXPECT_THROW(channel.send({1, 0, Heartbeat{0, 1}}), std::logic_error);
  EXPECT_THROW(channel.path_delay_ms(0, 1), std::logic_error);
  EXPECT_EQ(channel.messages_sent(), 0u);
}

TEST(Channel, DropsToUnknownAndCountsKinds) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  channel.attach(0, 0, [](const Message&) {});
  Message m;
  m.from = 0;
  m.to = 999;  // never attached
  m.body = RoleRequest{1, 0, {}};
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
  channel.attach(c13(), 13, [](const Message&) {});
  Message m;
  m.from = c13();
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
  channel.attach(c13(), 13, [](const Message&) {});
  channel.detach(0);  // before the send, not merely before delivery
  Message m;
  m.from = c13();
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
  channel.attach(c13(), 13, [](const Message&) {});
  channel.send({c13(), 0, Heartbeat{0, 1}});
  channel.send({c13(), 0, RoleRequest{2, 0, {}}});
  channel.send({0, c13(), RoleReply{0, 2}});
  queue.run();
  const auto& kinds = channel.sent_by_kind();
  ASSERT_EQ(kinds.size(), kMessageKindCount);
  EXPECT_EQ(kinds.at("heartbeat"), 1u);
  EXPECT_EQ(kinds.at("role-request"), 1u);
  EXPECT_EQ(kinds.at("role-reply"), 1u);
  EXPECT_EQ(channel.messages_sent(), 3u);
}

/// The Heartbeat::sequence of a delivered heartbeat.
std::uint64_t beat_sequence(const Message& m) {
  return std::get<Heartbeat>(m.body).sequence;
}

TEST(Channel, ResendKeepsSequenceAndCountsRetransmission) {
  // A retransmission is the same message sent again: the receiver sees
  // the sender's own sequence twice, and only resend() counts.
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  std::vector<std::uint64_t> seqs;
  channel.attach(0, 0,
                 [&](const Message& m) { seqs.push_back(beat_sequence(m)); });
  channel.attach(c13(), 13, [](const Message&) {});
  const Message m{c13(), 0, Heartbeat{0, 7}};
  channel.send(m);
  EXPECT_EQ(channel.retransmissions(), 0u);
  channel.resend(m);
  queue.run();
  EXPECT_EQ(channel.retransmissions(), 1u);
  EXPECT_EQ(channel.messages_sent(), 2u);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{7, 7}));
}

// ---------------------------------------------------------------------
// Channel fault injection
// ---------------------------------------------------------------------

TEST(Channel, CertainDropLosesEverythingAndIsCounted) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  int received = 0;
  channel.attach(0, 0, [&](const Message&) { ++received; });
  channel.attach(c13(), 13, [](const Message&) {});
  ChannelFaultModel model;
  model.drop_probability = 1.0;
  channel.set_fault_model(model);
  for (int i = 0; i < 10; ++i) {
    channel.send({c13(), 0, Heartbeat{0, static_cast<std::uint64_t>(i)}});
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
  channel.attach(0, 0,
                 [&](const Message& m) { seqs.push_back(beat_sequence(m)); });
  channel.attach(c13(), 13, [](const Message&) {});
  ChannelFaultModel model;
  model.duplicate_probability = 1.0;
  channel.set_fault_model(model);
  channel.send({c13(), 0, Heartbeat{0, 1}});
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
  channel.attach(c13(), 13, [](const Message&) {});
  ChannelFaultModel model;
  model.reorder_probability = 1.0;
  model.reorder_delay_ms = 100.0;
  channel.set_fault_model(model);
  channel.send({c13(), 0, Heartbeat{0, 1}});
  queue.run();
  EXPECT_NEAR(received_at, att().delay_ms(0, 3) + 100.0, 1e-9);
  EXPECT_EQ(channel.fault_stats().reordered, 1u);
}

TEST(Channel, JitterReordersBackToBackMessages) {
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  std::vector<std::uint64_t> seqs;
  channel.attach(0, 0,
                 [&](const Message& m) { seqs.push_back(beat_sequence(m)); });
  channel.attach(c13(), 13, [](const Message&) {});
  ChannelFaultModel model;
  model.seed = 7;
  model.jitter_ms = 30.0;
  channel.set_fault_model(model);
  for (int i = 0; i < 20; ++i) {
    channel.send({c13(), 0, Heartbeat{0, static_cast<std::uint64_t>(i)}});
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
  channel.attach(c13(), 13, [](const Message&) {});
  ChannelFaultModel model;
  model.partitions.push_back({0, c13(), 100.0, 200.0});
  channel.set_fault_model(model);
  const auto send_heartbeat = [&] {
    channel.send({c13(), 0, Heartbeat{0, 1}});
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
      deliveries.emplace_back(beat_sequence(m), queue.now());
    });
    channel.attach(c13(), 13, [](const Message&) {});
    ChannelFaultModel model;
    model.seed = 7;
    model.drop_probability = 0.3;
    model.duplicate_probability = 0.3;
    model.jitter_ms = 10.0;
    model.reorder_probability = 0.2;
    model.reorder_delay_ms = 40.0;
    channel.set_fault_model(model);
    for (int i = 0; i < 100; ++i) {
      channel.send({c13(), 0, Heartbeat{0, static_cast<std::uint64_t>(i)}});
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
  EXPECT_EQ(report.messages_by_kind.at("role-request"),
            report.messages_by_kind.at("role-reply"));
}

TEST(ControlSimulation, AdoptedMastersMatchThePlan) {
  ControlSimulation simulation(att(), pm_policy());
  simulation.fail_controller_at(3, 500.0);
  simulation.run(5000.0);

  // The coordinator is the lowest-id survivor: controller 0.
  EXPECT_EQ(simulation.shared_state().coordinator, 0);
  ASSERT_TRUE(simulation.shared_state().last_plan.has_value());
  const core::RecoveryPlan& plan = *simulation.shared_state().last_plan;
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
  const auto& last_plan = simulation.shared_state().last_plan;
  ASSERT_TRUE(last_plan.has_value());
  const sdwan::FailureState state(att(), {{3, 4}});
  EXPECT_TRUE(core::validate_plan(state, *last_plan).empty());
}

TEST(ControlSimulation, DeadCoordinatorReplaced) {
  // Fail controller 0 (the would-be coordinator) plus controller 3:
  // controller 1 must take over coordination.
  ControlSimulation simulation(att(), pm_policy());
  simulation.fail_controller_at(0, 500.0);
  simulation.fail_controller_at(3, 500.0);
  const SimulationReport report = simulation.run(5000.0);
  EXPECT_GE(report.recovery_waves, 1u);
  EXPECT_EQ(simulation.shared_state().coordinator, 1);
  EXPECT_TRUE(simulation.shared_state().last_plan.has_value());
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
  // Every flow PM recovers is programmed, with one RoleRequest (and one
  // reply) per adopted switch, whose slices together hold one entry per
  // assignment that has a next hop to pin.
  const sdwan::FailureState state(att(), {{3}});
  const core::RecoveryPlan plan = core::run_pm(state);
  std::uint64_t pinned = 0;
  for (const auto& [sw, flow, controller] : plan.sdn_assignments) {
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
  EXPECT_EQ(report.messages_by_kind.at("role-reply"), plan.mapping.size());
  std::uint64_t installed = 0;
  for (int s = 0; s < att().switch_count(); ++s) {
    installed += simulation.dataplane().at(s).flow_table_size();
  }
  EXPECT_EQ(installed, pinned);
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
  // A middle layer that adds X ms to every RoleRequest (PG's per-message
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

TEST(ControlSimulation, DuplicatedDeliveriesAreSuppressedNotReapplied) {
  ControlSimulation clean(att(), pm_policy());
  clean.fail_controller_at(3, 500.0);
  const SimulationReport clean_report = clean.run(5000.0);

  ControlSimulation noisy(att(), pm_policy());
  noisy.set_fault_model(channel_faults(0.0, 1.0, 0.0));  // all twice
  noisy.fail_controller_at(3, 500.0);
  const SimulationReport noisy_report = noisy.run(5000.0);

  EXPECT_GT(noisy_report.duplicates_suppressed, 0u);
  EXPECT_EQ(clean_report.duplicates_suppressed, 0u);
  EXPECT_TRUE(noisy_report.all_flows_deliverable);
  // Dedup means duplication changes no protocol outcome: same entries
  // installed, no double-applied slices.
  EXPECT_EQ(noisy_report.flows_with_entries,
            clean_report.flows_with_entries);
  std::uint64_t clean_slices = 0;
  std::uint64_t noisy_slices = 0;
  for (int s = 0; s < att().switch_count(); ++s) {
    clean_slices += clean.switch_agent(s).slices_applied();
    noisy_slices += noisy.switch_agent(s).slices_applied();
    EXPECT_EQ(noisy.dataplane().at(s).flow_table_size(),
              clean.dataplane().at(s).flow_table_size())
        << "switch " << s;
  }
  EXPECT_EQ(noisy_slices, clean_slices);
}

TEST(ControlSimulation, ChaosTwoFailuresStillConverge) {
  // The acceptance scenario: 10% loss + 20 ms jitter (+ a little
  // duplication), fixed seed, two successive controller failures. The
  // reliable-delivery layer must still converge the waves and keep every
  // flow deliverable, with the repair work visible in the report.
  ControlSimulation simulation(att(), pm_policy(), patient_config());
  simulation.set_fault_model(channel_faults(0.10, 0.02, 20.0, 42));
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
  // Lost requests were retransmitted until replied: the plan is fully
  // installed despite the lossy channel.
  const auto& last_plan = simulation.shared_state().last_plan;
  ASSERT_TRUE(last_plan.has_value());
  for (const auto& [sw, adopter] : last_plan->mapping) {
    EXPECT_EQ(simulation.switch_agent(sw).master(), adopter)
        << "switch " << sw;
  }
}

TEST(ControlSimulation, ChaosRunsAreSeedDeterministic) {
  const auto run_once = [] {
    ControlSimulation simulation(att(), pm_policy(), patient_config());
    simulation.set_fault_model(channel_faults(0.10, 0.05, 20.0, 1234));
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

TEST(ControlSimulation, PartitionBetweenLiveControllersStartsNoWave) {
  // Cut only controller 0 <-> controller 3 for 400 ms, with no kill. Each
  // suspects the other, but no other controller agrees, so neither
  // suspicion is confirmed and no switch leaves its domain master.
  for (const int checks : {1, 3}) {
    ctrl::ControllerConfig config;
    config.suspicion_checks = checks;
    ControlSimulation simulation(att(), pm_policy(), config);
    ChannelFaultModel faults;
    faults.partitions.push_back({controller_endpoint(att(), 0),
                                 controller_endpoint(att(), 3), 1000.0,
                                 1400.0});
    simulation.set_fault_model(faults);
    const SimulationReport report = simulation.run(5000.0);
    EXPECT_TRUE(report.detected_at.has_value()) << checks;
    EXPECT_GE(report.spurious_detections, 2u) << checks;
    EXPECT_EQ(report.recovery_waves, 0u) << checks;
    EXPECT_EQ(report.adopted_switches, 0u) << checks;
    for (int s = 0; s < att().switch_count(); ++s) {
      EXPECT_EQ(simulation.switch_agent(s).master(), att().controller_of(s))
          << "switch " << s << ", suspicion_checks " << checks;
    }
  }
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
  // the control plane: RoleRequests to them can never be delivered, so
  // their retries must exhaust, degrade the affected switches (and the
  // flows planned on them), and still let the wave converge.
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
  // The wave converged (modulo the explicitly-degraded switches) rather
  // than hanging forever on unreachable switches...
  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_GT(*report.converged_at, 0.0);
  // ...and the hybrid data plane still delivers everything over the
  // legacy tables.
  EXPECT_TRUE(report.all_flows_deliverable);
}

// ---------------------------------------------------------------------
// Transactional recovery: epochs, mid-wave failures, sweeps, audit
// ---------------------------------------------------------------------

TEST(TransactionalRecovery, CoordinatorKilledMidWaveFailsOverAndReplans) {
  // Controller 3 fails at t=500; the coordinator that runs the wave is
  // killed at t=850, inside the recovery window, under loss + jitter.
  // The lowest surviving id must take over, replan against the updated
  // failure set, and commit with a clean consistency audit.
  ControlSimulation simulation(att(), pm_policy(), patient_config());
  simulation.set_fault_model(channel_faults(0.05, 0.0, 20.0));
  simulation.fail_controller_at(3, 500.0);
  simulation.fail_controller_at(0, 850.0);  // the coordinator
  const SimulationReport report = simulation.run(15000.0);

  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_GE(report.coordinator_failovers, 1u);
  EXPECT_TRUE(report.audit_clean) << report.audit_violations;
  const SharedRecoveryState& shared = simulation.shared_state();
  EXPECT_GT(shared.wave_epoch, 0u);
  ASSERT_TRUE(shared.committed_plan.has_value());
  EXPECT_EQ(shared.committed_epoch, shared.wave_epoch);
  // The successor, not the dead node, owns the committed wave.
  EXPECT_NE(shared.coordinator, 0);
  EXPECT_TRUE(simulation.controller(shared.coordinator).alive());
}

TEST(TransactionalRecovery, AdopterKilledMidWaveIsReplannedAround) {
  // Kill a wave-1 ADOPTER (not the coordinator) mid-wave: its slice can
  // never prepare, the detector fires, and the coordinator's next wave
  // must re-home its switches and sweep any entries the dead adopter's
  // slices left behind.
  sdwan::FailureScenario scenario;
  scenario.failed = {3};
  const sdwan::FailureState state(att(), scenario);
  const core::RecoveryPlan wave1 = core::run_pm(state);
  sdwan::ControllerId adopter = -1;
  for (const auto& [sw, j] : wave1.mapping) {
    if (j != 0) adopter = std::max(adopter, j);
  }
  ASSERT_GE(adopter, 0) << "wave-1 plan uses only the coordinator";

  ControlSimulation simulation(att(), pm_policy(), patient_config());
  simulation.set_fault_model(channel_faults(0.05, 0.0, 20.0));
  simulation.fail_controller_at(3, 500.0);
  simulation.fail_controller_at(adopter, 850.0);
  const SimulationReport report = simulation.run(15000.0);

  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_TRUE(report.audit_clean) << report.audit_violations;
  const SharedRecoveryState& shared = simulation.shared_state();
  EXPECT_EQ(shared.committed_epoch, shared.wave_epoch);
  EXPECT_GT(shared.wave_epoch, 0u);
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

  ControlSimulation simulation(att(), pm_policy(), patient_config());
  simulation.set_fault_model(channel_faults(0.05, 0.0, 20.0));
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
  EXPECT_EQ(simulation.shared_state().committed_epoch,
            simulation.shared_state().wave_epoch);
  EXPECT_GT(simulation.shared_state().wave_epoch, 0u);
}

TEST(TransactionalRecovery, DeadAdopterIsTakenOverNotSpokenFor) {
  // C2 fails at 500 ms and C6, a wave-1 adopter, at 850 ms, while its
  // slices are in flight. Their retries stop against the detached
  // endpoint; the next wave's slices for those switches must come from a
  // live controller, never from the dead adopter's endpoint (the channel
  // throws on that).
  const auto at_node = [](int node) {
    for (sdwan::ControllerId j = 0; j < att().controller_count(); ++j) {
      if (att().controller(j).location == node) return j;
    }
    return sdwan::ControllerId{-1};
  };
  ControlSimulation simulation(att(), pm_policy(), patient_config());
  simulation.set_fault_model(channel_faults(0.0, 0.0, 5.0));
  simulation.fail_controller_at(at_node(2), 500.0);
  simulation.fail_controller_at(at_node(6), 850.0);
  SimulationReport report;
  ASSERT_NO_THROW(report = simulation.run(10000.0));

  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_TRUE(report.all_flows_deliverable);
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

TEST(TransactionalRecovery, CutSwitchesDegradeWholeAndTheRestKeepTheirSlices) {
  // Permanently cut SOME of the failed controller's switches off the
  // control plane. No earlier wave reached them, so their requests
  // exhaust and each degrades as a whole switch: it holds no entry and
  // forwards legacy. The reachable switches keep their complete slices,
  // and the audit comes back clean (degraded is legal; a partial slice
  // is not).
  ControlSimulation simulation(att(), pm_policy());
  ChannelFaultModel faults;
  const auto& domain = att().controller(3).domain;
  ASSERT_GE(domain.size(), 2u);
  const std::vector<sdwan::SwitchId> cut(domain.begin(), domain.begin() + 2);
  for (const sdwan::SwitchId s : cut) {
    faults.partitions.push_back(
        {PartitionWindow::kAnyEndpoint, switch_endpoint(s), 0.0, 1e12});
  }
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(3, 500.0);
  const SimulationReport report = simulation.run(20000.0);

  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_TRUE(report.audit_clean) << report.audit_violations;
  const SharedRecoveryState& shared = simulation.shared_state();
  ASSERT_TRUE(shared.committed_plan.has_value());
  const core::RecoveryPlan& plan = *shared.committed_plan;
  std::size_t cut_mapped = 0;
  for (const sdwan::SwitchId s : cut) {
    if (!plan.mapping.contains(s)) continue;
    ++cut_mapped;
    EXPECT_TRUE(shared.degraded_switches.contains(s)) << "switch " << s;
    EXPECT_EQ(simulation.dataplane().at(s).flow_table_size(), 0u)
        << "switch " << s;
  }
  ASSERT_GE(cut_mapped, 1u);
  EXPECT_EQ(report.degraded_switches, cut_mapped);
  EXPECT_GE(report.degraded_flows, 1u);
  // Every assignment on a reachable switch is installed at the
  // committed epoch.
  for (const auto& [sw, flow, controller] : plan.sdn_assignments) {
    if (shared.degraded_switches.contains(sw)) continue;
    const auto& f = att().flow(flow);
    if (f.path.back() == sw) continue;  // nothing to pin
    const sdwan::FlowEntry* e =
        entry_for(simulation.dataplane().at(sw), f.src, f.dst);
    ASSERT_NE(e, nullptr) << "switch " << sw << ", flow " << flow;
    EXPECT_EQ(e->cookie, shared.committed_epoch);
  }
}

TEST(TransactionalRecovery, SwitchDiscardsStaleEpochMessages) {
  // Unit-level: drive a SwitchAgent over a raw channel. A request below
  // the switch's epoch high-water mark is discarded: no reply, and its
  // slice is not applied.
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  sdwan::Dataplane dataplane(att().topology(), sdwan::RoutingMode::kHybrid);
  SwitchAgent agent(0, dataplane.at(0), channel);
  agent.attach();
  const EndpointId ctrl_ep = controller_endpoint(att(), 0);
  std::size_t replies = 0;
  channel.attach(ctrl_ep, att().controller(0).location,
                 [&](const Message& m) {
                   if (std::holds_alternative<RoleReply>(m.body)) ++replies;
                 });
  const auto send_role = [&](std::uint64_t epoch, sdwan::SwitchId next_hop) {
    Message m;
    m.from = ctrl_ep;
    m.to = switch_endpoint(0);
    m.body = RoleRequest{0, epoch, {{10, {0, 5}, next_hop}}};
    channel.send(m);
  };

  send_role(2, 1);
  queue.run();
  EXPECT_EQ(agent.epoch(), 2u);
  EXPECT_EQ(replies, 1u);

  send_role(1, 2);  // stale: a deposed master's retransmission
  queue.run();
  EXPECT_EQ(agent.stale_discarded(), 1u);
  EXPECT_EQ(replies, 1u);  // no reply for the stale request
  EXPECT_EQ(agent.epoch(), 2u);
  ASSERT_EQ(dataplane.at(0).flow_table_size(), 1u);
  EXPECT_EQ(dataplane.at(0).flow_table()[0].next_hop, 1);
  EXPECT_EQ(dataplane.at(0).flow_table()[0].cookie, 2u);
}

TEST(TransactionalRecovery, SliceReplacesTheTableAndDuplicatesAreRereplied) {
  // Unit-level mark and sweep: a fresh slice replaces every SDN entry
  // the switch holds, tagging each with its epoch; a duplicate is
  // re-replied but not re-applied; a stale slice gets no reply; an empty
  // slice sweeps the table.
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  sdwan::Dataplane dataplane(att().topology(), sdwan::RoutingMode::kHybrid);
  SwitchAgent agent(0, dataplane.at(0), channel);
  agent.attach();
  const EndpointId ctrl_ep = controller_endpoint(att(), 1);
  std::vector<RoleReply> replies;
  channel.attach(ctrl_ep, att().controller(1).location,
                 [&](const Message& m) {
                   replies.push_back(std::get<RoleReply>(m.body));
                 });
  const auto send_slice = [&](std::uint64_t epoch,
                              std::vector<sdwan::FlowEntry> entries) {
    Message m;
    m.from = ctrl_ep;
    m.to = switch_endpoint(0);
    m.body = RoleRequest{1, epoch, std::move(entries)};
    channel.send(m);
    return m;
  };
  const auto& table = dataplane.at(0).flow_table();

  const Message first = send_slice(3, {{10, {0, 5}, 1}, {10, {0, 7}, 2}});
  queue.run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].sw, 0);
  EXPECT_EQ(replies[0].epoch, 3u);
  EXPECT_EQ(agent.master(), 1);
  EXPECT_EQ(agent.slices_applied(), 1u);
  ASSERT_EQ(table.size(), 2u);
  for (const sdwan::FlowEntry& e : table) EXPECT_EQ(e.cookie, 3u);

  // The same request again (a retransmission after a lost reply): one
  // more reply, nothing re-applied.
  channel.send(first);
  queue.run();
  EXPECT_EQ(replies.size(), 2u);
  EXPECT_EQ(agent.duplicates_suppressed(), 1u);
  EXPECT_EQ(agent.slices_applied(), 1u);
  EXPECT_EQ(table.size(), 2u);

  // A stale slice is dropped without a reply.
  send_slice(2, {{10, {0, 9}, 1}});
  queue.run();
  EXPECT_EQ(replies.size(), 2u);
  EXPECT_EQ(agent.stale_discarded(), 1u);
  EXPECT_EQ(table.size(), 2u);

  // A later slice replaces the table: the (0, 7) entry is swept, (0, 5)
  // moves to its new next hop and epoch, (0, 9) is new.
  send_slice(4, {{10, {0, 5}, 2}, {10, {0, 9}, 1}});
  queue.run();
  EXPECT_EQ(replies.size(), 3u);
  EXPECT_EQ(agent.slices_applied(), 2u);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(entry_for(dataplane.at(0), 0, 7), nullptr);
  const sdwan::FlowEntry* moved = entry_for(dataplane.at(0), 0, 5);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->next_hop, 2);
  for (const sdwan::FlowEntry& e : table) EXPECT_EQ(e.cookie, 4u);

  // An empty slice sweeps the table.
  send_slice(5, {});
  queue.run();
  EXPECT_EQ(replies.size(), 4u);
  EXPECT_EQ(agent.epoch(), 5u);
  EXPECT_TRUE(table.empty());
}

/// Controller 0 alone on a raw channel: its peers 1-5 are bare endpoints
/// the test speaks for, and the policy plans nothing unless one is given.
struct LoneController {
  sim::EventQueue queue;
  ControlChannel channel{att(), queue};
  SharedRecoveryState shared;
  ControllerNode node;

  explicit LoneController(
      RecoveryPolicy policy = [](const sdwan::FailureState&,
                                 const core::RecoveryPlan*) {
        return core::RecoveryPlan{};
      })
      : node(att(), 0, channel, queue, shared, std::move(policy), {}) {
    for (sdwan::ControllerId j = 1; j < att().controller_count(); ++j) {
      channel.attach(controller_endpoint(att(), j),
                     att().controller(j).location, [](const Message&) {});
    }
    node.start();
  }

  void beat(sdwan::ControllerId from, std::uint64_t sequence,
            double extra_latency_ms = 0.0) {
    channel.send({controller_endpoint(att(), from),
                  controller_endpoint(att(), 0), Heartbeat{from, sequence}},
                 extra_latency_ms);
  }

  /// Peer `j` beats every period from now on, as a live controller does.
  void keep_alive(sdwan::ControllerId j, std::uint64_t sequence = 0) {
    beat(j, sequence);
    queue.schedule_in(kHeartbeatIntervalMs,
                      [this, j, sequence] { keep_alive(j, sequence + 1); });
  }

  /// Opens a wave waiting on `sw`'s reply, as run_recovery leaves it.
  void open_wave(sdwan::SwitchId sw) {
    ++shared.wave_epoch;
    std::fill(shared.requests.begin(), shared.requests.end(),
              SwitchRequest{});
    shared.requests[static_cast<std::size_t>(sw)].pending = true;
    shared.pending_replies = 1;
    shared.converged_at = -1.0;
  }
};

TEST(DuplicateFilters, OvertakenHeartbeatRefreshesNothing) {
  // Peer 1 beats 3, 5 and 4, but 5 arrives first and then the peer falls
  // silent. Beats 3 and 4 were overtaken: neither may postpone the
  // suspicion that beat 5's age earns, nor lift it once raised.
  LoneController c;
  for (sdwan::ControllerId j = 2; j < att().controller_count(); ++j) {
    c.keep_alive(j);
  }
  const double d = c.channel.path_delay_ms(controller_endpoint(att(), 1),
                                           controller_endpoint(att(), 0));
  ASSERT_LT(d, 40.0);
  c.beat(1, 3, 150.0);  // lands at 150 + d
  c.queue.schedule_at(10.0, [&c] { c.beat(1, 5); });  // lands at 10 + d
  c.queue.schedule_at(20.0, [&c] { c.beat(1, 4, 600.0); });  // 620 + d

  // Beat 5 is more than the detection timeout old at the 250 ms check;
  // had beat 3 refreshed the peer, the first late check would be 400 ms.
  c.queue.run(300.0);
  EXPECT_TRUE(c.node.suspected().contains(1));
  EXPECT_EQ(c.node.duplicates_suppressed(), 1u);

  c.queue.run(700.0);
  EXPECT_TRUE(c.node.suspected().contains(1));
  EXPECT_EQ(c.node.spurious_detections(), 0u);
  EXPECT_EQ(c.node.duplicates_suppressed(), 2u);
  // The live peers are never suspected, so one vote confirms nothing.
  EXPECT_EQ(c.node.suspected().size(), 1u);
  EXPECT_EQ(c.node.recoveries_run(), 0u);
}

TEST(DuplicateFilters, ReplyCopyAfterANewerWaveIsStale) {
  // A RoleReply passes no duplicate filter: a copy of wave 1's reply that
  // lands once wave 2 is preparing is stale and settles nothing of wave 2,
  // and a copy of a current reply changes nothing.
  LoneController c;
  const sdwan::SwitchId sw = 7;
  c.channel.attach(switch_endpoint(sw), sw, [](const Message&) {});
  const auto reply = [&c, sw](std::uint64_t epoch) {
    c.channel.send({switch_endpoint(sw), controller_endpoint(att(), 0),
                    RoleReply{sw, epoch}});
  };
  const auto s = static_cast<std::size_t>(sw);

  c.open_wave(sw);
  reply(1);
  c.queue.run(50.0);
  EXPECT_EQ(c.shared.committed_epoch, c.shared.wave_epoch);
  EXPECT_EQ(c.shared.committed_epoch, 1u);

  c.open_wave(sw);
  reply(1);  // the channel's copy of wave 1's reply
  c.queue.run(100.0);
  EXPECT_EQ(c.shared.stale_discarded, 1u);
  EXPECT_TRUE(c.shared.requests[s].pending);
  EXPECT_EQ(c.shared.pending_replies, 1u);
  EXPECT_TRUE(c.shared.preparing());
  EXPECT_EQ(c.node.duplicates_suppressed(), 0u);

  reply(2);
  reply(2);
  c.queue.run(150.0);
  EXPECT_EQ(c.shared.committed_epoch, c.shared.wave_epoch);
  EXPECT_EQ(c.shared.committed_epoch, 2u);
  EXPECT_EQ(c.shared.pending_replies, 0u);
  EXPECT_EQ(c.shared.stale_discarded, 1u);
  EXPECT_EQ(c.node.duplicates_suppressed(), 0u);
}

TEST(StaleTimers, SupersededWaveTimerResendsNothing) {
  // Controller 0 coordinates two waves that both map switch 7 to itself.
  // The switch never answers, so wave 1's retransmission timer is still
  // armed when wave 2 begins. That timer must do nothing: from wave 2 on
  // the switch hears only wave 2's request, at wave 2's own backoff
  // (successive copies at least wave 2's first timeout apart). A live
  // wave-1 timer would resend in between, as a second chain.
  const sdwan::SwitchId sw = 7;
  LoneController c([sw](const sdwan::FailureState&,
                        const core::RecoveryPlan*) {
    core::RecoveryPlan plan;
    plan.mapping[sw] = 0;
    return plan;
  });
  std::vector<std::pair<double, std::uint64_t>> heard;  // (time, epoch)
  c.channel.attach(switch_endpoint(sw), sw, [&c, &heard](const Message& m) {
    if (const auto* request = std::get_if<RoleRequest>(&m.body)) {
      heard.emplace_back(c.queue.now(), request->epoch);
    }
  });
  // Peer 3 is silent from the start and peer 4 from 1000 ms; peers 1 and
  // 2 suspect both, so controller 0's suspicion of each wins the vote.
  c.keep_alive(1);
  c.keep_alive(2);
  c.keep_alive(5);
  for (std::uint64_t beat = 0; beat < 20; ++beat) {
    c.queue.schedule_at(static_cast<double>(beat) * kHeartbeatIntervalMs,
                        [&c, beat] { c.beat(4, beat); });
  }
  c.shared.suspicions[1] = {3, 4};
  c.shared.suspicions[2] = {3, 4};

  c.queue.run(20000.0);
  EXPECT_EQ(c.node.recoveries_run(), 2u);
  ASSERT_EQ(c.shared.wave_epoch, 2u);
  EXPECT_TRUE(c.shared.degraded_switches.empty());
  const auto wave2 =
      std::find_if(heard.begin(), heard.end(),
                   [](const auto& h) { return h.second == 2; });
  ASSERT_NE(wave2, heard.end());
  // Wave 1 was still retransmitting: it had not degraded.
  ASSERT_GE(wave2 - heard.begin(), 2);
  ASSERT_GE(heard.end() - wave2, kMaxRetries + 1);
  const double first_rto =
      2.0 * c.channel.path_delay_ms(controller_endpoint(att(), 0),
                                    switch_endpoint(sw)) +
      kRetransmitMarginMs;
  for (auto h = wave2 + 1; h != heard.end(); ++h) {
    EXPECT_EQ(h->second, 2u) << "at " << h->first << " ms";
    EXPECT_GE(h->first - (h - 1)->first, first_rto - 1e-9)
        << "at " << h->first << " ms";
  }
}

TEST(TransactionalRecovery, AuditorReadsTheSwitchFlowTable) {
  // An entry written straight into a switch, past its agent, is still
  // data-plane state: the auditor must see it as unplanned.
  sim::EventQueue queue;
  ControlChannel channel(att(), queue);
  sdwan::Dataplane dataplane(att().topology(), sdwan::RoutingMode::kHybrid);
  std::vector<std::unique_ptr<SwitchAgent>> agents;
  std::vector<const SwitchAgent*> ptrs;
  for (int s = 0; s < att().switch_count(); ++s) {
    agents.push_back(
        std::make_unique<SwitchAgent>(s, dataplane.at(s), channel));
    ptrs.push_back(agents.back().get());
  }
  const auto& flow = att().flow(att().flow_by_match(3, 7));
  dataplane.at(3).install({10, {3, 7}, flow.path[1]});
  SharedRecoveryState shared;
  shared.committed_plan = core::RecoveryPlan{};
  const std::vector<bool> alive(
      static_cast<std::size_t>(att().controller_count()), true);
  const AuditReport audit =
      audit_recovery(att(), dataplane, ptrs, alive, shared);
  EXPECT_EQ(audit.entries_checked, 1u);
  ASSERT_EQ(audit.violations.size(), 1u);
  EXPECT_EQ(audit.violations[0].invariant, "unplanned-entry");
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
  // Controller 1 masters switch 0 with a one-entry slice at epoch 1,
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
  role.body = RoleRequest{1, 1, {{10, {0, 5}, next_hop}}};
  channel.send(role);
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
// What the control-plane protocol did, cell by cell: each line of
// tests/data/ctrl_chaos_cells.txt is one cell of the benchmark's chaos
// settings (transactional protocol, 5% loss, 2% duplication, 5 ms
// jitter, suspicion_checks = 3, PM seeded with the previous plan) with
// two kills: the first victim at 500 ms, the second a seeded 100-600 ms
// later, inside the recovery wave. Cell i kills the ordered pair
// i % 30 of ATT's six controllers, so every (first, second) pair --
// coordinators, adopters and bystanders alike -- appears. The columns
// (the file header is their legend) come from the report, the channel,
// the event queue, the audit and the histograms, never from exported
// text, so renaming or dropping a metric series moves no line.
// ---------------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A golden line as (column name, value) pairs; the line is the values.
using CellColumns = std::vector<std::pair<std::string, std::string>>;

/// Arms `simulation` with cell i -- the ordered victim pair i % 30, a
/// seeded second-kill time and fault seed -- runs it, and states what the
/// cell did.
CellColumns chaos_cell_columns(std::uint64_t index,
                               ControlSimulation& simulation) {
  const int m = att().controller_count();
  const auto pair = static_cast<int>(index % static_cast<std::uint64_t>(
                                                 m * (m - 1)));
  const int first = pair / (m - 1);
  int second = pair % (m - 1);
  if (second >= first) ++second;
  const std::uint64_t h = splitmix64(index);
  const double second_kill_ms =
      600.0 + static_cast<double>(h % 500'000) / 1000.0;
  simulation.observability().detailed_metrics = true;
  simulation.set_fault_model(
      channel_faults(0.05, 0.02, 5.0, splitmix64(h ^ 0x5eedULL)));
  simulation.fail_controller_at(first, 500.0);
  simulation.fail_controller_at(second, second_kill_ms);
  const SimulationReport r = simulation.run(10000.0);
  const auto n = [](auto v) { return std::to_string(v); };
  const auto time = [](const std::optional<double>& t) {  // round-trip
    char buf[32];
    return t ? std::string(buf, std::to_chars(buf, buf + sizeof buf, *t).ptr)
             : std::string("none");
  };
  const auto sent = [&](const char* kind) {
    const auto& by_kind = r.messages_by_kind;
    return n(by_kind.contains(kind) ? by_kind.at(kind) : 0);
  };
  std::string audit;
  for (const auto& [invariant, count] : simulation.audit().by_invariant()) {
    audit += (audit.empty() ? "" : ",") + invariant + '=' + n(count);
  }
  // Every delivery latency, wave convergence time and switch table size,
  // by bucket counts and the bits of each sum.
  std::string histograms;
  for (const char* name : {"pm_message_latency_ms", "pm_wave_convergence_ms",
                           "pm_switch_flow_entries"}) {
    const obs::Histogram* hist =
        simulation.observability().metrics.find_histogram(name);
    if (hist == nullptr) {
      // What an empty, bucketless series prints: its +Inf bucket and sum.
      histograms += "0 " + hex64(0) + '\n';
      continue;
    }
    for (const std::uint64_t c : hist->bucket_counts()) {
      histograms += n(c) + ' ';
    }
    histograms += hex64(std::bit_cast<std::uint64_t>(hist->sum())) + '\n';
  }
  char kill[32];
  std::snprintf(kill, sizeof kill, "%.3f", second_kill_ms);
  return {{"cell", n(index)}, {"victims", n(first) + ',' + n(second)},
          {"second_kill_ms", kill}, {"detected_at", time(r.detected_at)},
          {"converged_at", time(r.converged_at)},
          {"waves", n(r.recovery_waves)}, {"waves_aborted", n(r.waves_aborted)},
          {"failovers", n(r.coordinator_failovers)},
          {"sent", n(r.messages_sent)}, {"heartbeat", sent("heartbeat")},
          {"role_request", sent("role-request")},
          {"role_reply", sent("role-reply")},
          {"retransmissions", n(r.retransmissions)},
          {"duplicates", n(r.duplicates_suppressed)},
          {"stale", n(r.stale_discarded)},
          {"spurious", n(r.spurious_detections)},
          {"degraded_switches", n(r.degraded_switches)},
          {"degraded_flows", n(r.degraded_flows)},
          {"flows_with_entries", n(r.flows_with_entries)},
          {"adopted", n(r.adopted_switches)},
          {"deliverable", n(int{r.all_flows_deliverable})},
          {"injected_drops", n(r.injected_drops)},
          {"injected_duplicates", n(r.injected_duplicates)},
          {"reordered", n(r.reordered_messages)},
          {"partition_drops", n(r.partition_drops)},
          {"dropped", n(simulation.channel().messages_dropped())},
          {"events", n(simulation.queue().executed_total())},
          {"audit", audit.empty() ? "-" : audit},
          {"histograms", hex64(fnv1a64(histograms))}};
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

/// Runs the first `cells` cells and names, per cell, each column that
/// moved from its golden line, as "name: golden -> now".
void expect_chaos_cells(std::size_t cells) {
  const auto lines = golden_lines("ctrl_chaos_cells.txt");
  ASSERT_EQ(lines.size(), 1024u);
  for (std::size_t i = 0; i < cells; ++i) {
    ControlSimulation simulation(att(), pm_policy(), patient_config());
    std::istringstream golden(lines[i]);
    std::string moved;
    for (const auto& [name, now] : chaos_cell_columns(i, simulation)) {
      std::string was;
      golden >> was;
      if (was != now) moved += "\n  " + name + ": " + was + " -> " + now;
    }
    if (std::string extra; golden >> extra) moved += "\n  extra: " + extra;
    EXPECT_TRUE(moved.empty()) << "cell " << i << moved;
  }
}

TEST(CtrlGolden, ChaosCells) { expect_chaos_cells(64); }

// All 1024 cells (under 1 s in Release); `ctest -C full` runs it
// (test_ctrl.AllChaosCellsAndKillSchedules).
TEST(CtrlGolden, DISABLED_ChaosCellsAll) { expect_chaos_cells(1024); }

// A series registered first under another help string changes cell 0's
// Prometheus export and leaves its line as it was.
TEST(CtrlGolden, CellLineIgnoresExportText) {
  ControlSimulation plain(att(), pm_policy(), patient_config());
  ControlSimulation relabelled(att(), pm_policy(), patient_config());
  relabelled.observability().metrics.counter("pm_partition_drops_total",
                                             "Another help string");
  EXPECT_EQ(chaos_cell_columns(0, plain), chaos_cell_columns(0, relabelled));
  std::ostringstream a, b;
  plain.observability().metrics.write_prometheus(a);
  relabelled.observability().metrics.write_prometheus(b);
  EXPECT_NE(a.str(), b.str());
}

// ---------------------------------------------------------------------
// Golden traces
//
// Byte identity of the protocol's exports: each line of
// tests/data/ctrl_trace_digests.txt holds the golden::fnv1a64 digests
// of the JSONL trace, the Chrome trace, the Prometheus export and the
// JSON metrics export of one traced run (tracer and detailed metrics
// on). Both runs are made twice, in process and by
// examples/protocol_trace, whose written files must hash to the same
// lines:
//  * fail-13-20 (--fail=13 --kill-at=3000:20): C13 dies at 500 ms, C20
//    at 3000 ms, fault-free;
//  * kill-13-0 (--fail=13 --kill-at=850:2 ...): C13 dies at 500 ms and
//    controller 0 (C2) at 850 ms, inside the recovery wave, over 5% loss
//    and 20 ms jitter (fault seed 42), suspicion_checks = 3.
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
         hex64(fnv1a64(prometheus.str())) + ' ' +
         hex64(fnv1a64(obs.metrics.to_json(2) + "\n"));
}

TEST(CtrlGolden, TraceDigests) {
  const auto failed = sdwan::FailureScenario::parse(att(), "13,20").failed;
  ASSERT_EQ(failed.size(), 2u);
  const std::vector<std::string> lines = {
      trace_digest_line("fail-13-20", {{failed[0], 500.0}, {failed[1], 3000.0}},
                        {}, {}),
      trace_digest_line("kill-13-0", {{failed[0], 500.0}, {0, 850.0}},
                        channel_faults(0.05, 0.0, 20.0, 42), patient_config())};
  EXPECT_EQ(lines, golden_lines("ctrl_trace_digests.txt"));
}

/// Runs examples/protocol_trace (PM_PROTOCOL_TRACE) with `flags` and
/// every file flag, writing to <build>/tests/traces/<name>.*; checks its
/// stdout against tests/data/protocol_trace_<name>.txt and returns the
/// digest line of the files it wrote.
std::string protocol_trace_digest_line(const std::string& name,
                                       const std::string& flags) {
  const std::string base = golden::output_dir("traces") + name;
  const std::vector<std::string> files = {".jsonl", ".json", ".prom",
                                          ".metrics.json"};
  // A file left by an earlier run must not stand in for one not written.
  for (const std::string& file : files) std::filesystem::remove(base + file);
  const std::string command =
      std::string("'") + PM_PROTOCOL_TRACE + "' " + flags +
      " --trace-jsonl='" + base + ".jsonl' --trace-out='" + base +
      ".json' --metrics-out='" + base + ".prom' --metrics-json='" + base +
      ".metrics.json' --log-level=quiet > '" + base + ".txt'";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  EXPECT_EQ(golden::read_file(base + ".txt"),
            read_data_file("protocol_trace_" + name + ".txt"));
  std::string line = name;
  for (const std::string& file : files) {
    line += ' ' + hex64(fnv1a64(golden::read_file(base + file)));
  }
  return line;
}

TEST(CtrlGolden, ProtocolTraceWritesGoldenFiles) {
  const std::vector<std::string> lines = {
      protocol_trace_digest_line("fail-13-20", "--fail=13 --kill-at=3000:20"),
      protocol_trace_digest_line("kill-13-0",
                                 "--fail=13 --kill-at=850:2 --loss=0.05 "
                                 "--jitter=20 --suspicion-checks=3")};
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
  ControlSimulation simulation(att(), pm_policy(), patient_config());
  simulation.set_fault_model(s.faults);
  for (const auto& [j, at] : s.kills) simulation.fail_controller_at(j, at);
  SimulationReport report;
  ASSERT_NO_THROW(report = simulation.run(20000.0)) << label.str();
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

// The full property set (about 5 s in Release); `ctest -C full` runs it
// (test_ctrl.AllChaosCellsAndKillSchedules).
TEST(KillScheduleProperty, DISABLED_SeededSchedulesRecoverAll) {
  for (std::uint64_t i = 0; i < 1000; ++i) expect_kill_schedule_recovers(i);
}

// ---------------------------------------------------------------------
// Suspicion quorum
//
// Cell 14137 of the benchmark's chaos workload at seed 1 (perfbench's
// cell derivation): controller 5 dies at 500 ms and controller 1 at
// 612.947 ms. Under the earlier per-flow protocol, near 9.65 s the
// coordinator alone suspected a live peer that loss kept silent for
// 340 ms, and acting on that lone suspicion started a wave that moved
// the live peer's switches away and ran past the 10 s horizon. With one
// message per switch per wave the cell draws a different fault sequence
// and no longer reproduces that suspicion. It stays as a regression
// cell; ControlSimulation.PartitionBetweenLiveControllersStartsNoWave
// covers the vote itself.
// ---------------------------------------------------------------------

TEST(SuspicionQuorum, LoneFalseSuspicionReplansNoLivePeer) {
  const std::uint64_t h = splitmix64(0x100000001b3ULL + 14137);
  const double second_kill_ms =
      600.0 + static_cast<double>(splitmix64(h) % 500'000) / 1000.0;
  ASSERT_NEAR(second_kill_ms, 612.947, 1e-9);
  ControlSimulation simulation(att(), pm_policy(), patient_config());
  simulation.set_fault_model(
      channel_faults(0.05, 0.02, 5.0, splitmix64(h ^ 0x5eedULL)));
  simulation.fail_controller_at(5, 500.0);
  simulation.fail_controller_at(1, second_kill_ms);
  const SimulationReport report = simulation.run(10000.0);
  EXPECT_TRUE(report.converged_at.has_value());
  EXPECT_EQ(simulation.shared_state().committed_epoch,
            simulation.shared_state().wave_epoch);
  EXPECT_GT(simulation.shared_state().wave_epoch, 0u);
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_TRUE(report.audit_clean) << report.audit_violations;
  const sdwan::FailureState state(att(), {{1, 5}});
  ASSERT_TRUE(simulation.shared_state().committed_plan.has_value());
  EXPECT_TRUE(core::validate_plan(
                  state, *simulation.shared_state().committed_plan)
                  .empty());
}

// ---------------------------------------------------------------------
// Persistent requests
//
// A request to a switch that an earlier wave reached never gives up
// while its sender is attached: that switch may still hold the old
// epoch's entries, and committing without its new slice would leave
// them behind (a stale-epoch audit violation).
// ---------------------------------------------------------------------

TEST(PersistentRequests, ChaosCell9564CommitsCleanly) {
  // Cell 9564 of the benchmark's chaos derivation at seed 1 over all 30
  // ordered pairs: controller 0 dies at 500 ms and controller 3 at
  // 667.077 ms. Loss dropped switch 16's wave-2 request six times in a
  // row; giving up on it committed the wave with wave-1 entries still
  // on the switch.
  const std::uint64_t h = splitmix64(0x100000001b3ULL + 9564);
  const double second_kill_ms =
      600.0 + static_cast<double>(splitmix64(h) % 500'000) / 1000.0;
  ASSERT_NEAR(second_kill_ms, 667.077, 1e-9);
  ControlSimulation simulation(att(), pm_policy(), patient_config());
  simulation.set_fault_model(
      channel_faults(0.05, 0.02, 5.0, splitmix64(h ^ 0x5eedULL)));
  simulation.fail_controller_at(0, 500.0);
  simulation.fail_controller_at(3, second_kill_ms);
  const SimulationReport report = simulation.run(10000.0);
  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_TRUE(report.all_flows_deliverable);
  EXPECT_TRUE(report.audit_clean) << report.audit_violations;
  for (const auto& v : simulation.audit().violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

TEST(PersistentRequests, PartitionedSwitchHoldsTheCommitUntilItHeals) {
  // C13 fails at 500 ms and wave 1 programs its switches. One of them is
  // then cut off from 1000 ms to 12000 ms, and C20 fails at 3000 ms.
  // Wave 2's request to the cut switch outlives the whole retry budget
  // (kMaxRetries doublings, about 4-6 s here) but must not degrade: the
  // wave commits only after the partition heals, with the switch on the
  // new epoch and a clean audit.
  const sdwan::FailureState first(att(), {{3}});
  const core::RecoveryPlan wave1 = core::run_pm(first);
  ASSERT_FALSE(wave1.mapping.empty());
  const sdwan::SwitchId cut = wave1.mapping.begin()->first;
  constexpr double kHealMs = 12000.0;

  ControlSimulation simulation(att(), pm_policy());
  ChannelFaultModel faults;
  faults.partitions.push_back({PartitionWindow::kAnyEndpoint,
                               switch_endpoint(cut), 1000.0, kHealMs});
  simulation.set_fault_model(faults);
  simulation.fail_controller_at(3, 500.0);
  simulation.fail_controller_at(4, 3000.0);
  const SimulationReport report = simulation.run(20000.0);

  ASSERT_TRUE(report.converged_at.has_value());
  EXPECT_GT(*report.converged_at, kHealMs);
  EXPECT_GT(report.retransmissions, static_cast<std::uint64_t>(kMaxRetries));
  EXPECT_EQ(report.degraded_switches, 0u);
  EXPECT_TRUE(report.audit_clean) << report.audit_violations;
  EXPECT_EQ(simulation.shared_state().committed_epoch, 2u);
  EXPECT_EQ(simulation.switch_agent(cut).epoch(), 2u);
  const auto& table = simulation.dataplane().at(cut).flow_table();
  EXPECT_FALSE(table.empty());
  for (const sdwan::FlowEntry& e : table) EXPECT_EQ(e.cookie, 2u);
}

// ---------------------------------------------------------------------
// PG's middle layer
//
// PG may split one switch across controllers. The switch's mapped master
// relays the whole slice, at the plan's middle-layer cost, so the switch
// hears from one master only.
// ---------------------------------------------------------------------

TEST(PgMiddleLayer, FaultFreePgProgramsEveryRecoveredFlow) {
  const RecoveryPolicy pg = [](const sdwan::FailureState& state,
                               const core::RecoveryPlan*) {
    return core::run_pg(state);
  };
  std::size_t cases = 0;
  for (int k = 1; k <= 2; ++k) {
    for (const auto& scenario : sdwan::enumerate_failures(att(), k)) {
      ++cases;
      ControlSimulation simulation(att(), pg);
      for (const sdwan::ControllerId j : scenario.failed) {
        simulation.fail_controller_at(j, 500.0);
      }
      const SimulationReport report = simulation.run(5000.0);
      const std::string label = scenario.label(att());
      ASSERT_TRUE(report.converged_at.has_value()) << label;
      EXPECT_EQ(report.retransmissions, 0u) << label;
      EXPECT_EQ(report.degraded_switches, 0u) << label;
      EXPECT_TRUE(report.audit_clean) << label;
      const auto& plan = simulation.shared_state().committed_plan;
      ASSERT_TRUE(plan.has_value()) << label;
      const sdwan::FailureState state(att(), scenario);
      EXPECT_EQ(report.flows_with_entries,
                core::evaluate_plan(state, *plan).recovered_flow_count)
          << label;
    }
  }
  EXPECT_EQ(cases, 21u);
}

}  // namespace
}  // namespace pm::ctrl
