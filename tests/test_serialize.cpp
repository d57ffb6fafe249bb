// RecoveryPlan serialization contract: the JSON format is pinned by a
// golden file (a format change must show up as a reviewed diff of
// tests/data/), PM's fresh and seeded plans are pinned by digests,
// serialize -> deserialize -> serialize must be
// byte-identical for every algorithm — the property the svc plan cache
// leans on when it treats serialized payloads as canonical — and the
// streaming case-report writer must emit exactly the bytes of the JSON
// tree it replaces on the service path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/naive.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/retroflow.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"
#include "golden.hpp"

namespace pm {
namespace {

using golden::fnv1a64;
using golden::hex64;
using golden::read_data_file;
using util::JsonValue;

/// The deterministic rendering of a plan: wall clock zeroed (same
/// convention as svc::Engine payloads) so the bytes are a pure function
/// of the plan's decisions.
std::string canonical_plan_json(core::RecoveryPlan plan) {
  plan.solve_seconds = 0.0;
  return core::plan_to_json(plan).to_string(2);
}

TEST(SerializeGolden, PmPlanMatchesGoldenFile) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{3, 4}});
  const std::string produced =
      canonical_plan_json(core::run_pm(state)) + "\n";
  const std::string golden = read_data_file("plan_pm_att_3_4.json");
  EXPECT_EQ(produced, golden)
      << "plan JSON drifted from the golden file; if the format or the "
         "PM algorithm changed intentionally, regenerate "
         "tests/data/plan_pm_att_3_4.json";
}

TEST(SerializeGolden, GoldenFileDeserializesAndValidates) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{3, 4}});
  const std::string golden = read_data_file("plan_pm_att_3_4.json");
  const core::RecoveryPlan plan =
      core::plan_from_json(JsonValue::parse(golden));
  EXPECT_EQ(plan.algorithm, "PM");
  EXPECT_TRUE(core::validate_plan(state, plan).empty());
}

std::vector<sdwan::ControllerId> parse_ids(const std::string& csv) {
  std::vector<sdwan::ControllerId> ids;
  std::istringstream in(csv);
  for (std::string id; std::getline(in, id, ',');) {
    ids.push_back(std::stoi(id));
  }
  return ids;
}

/// Each line of pm_plan_digests_att_k3.txt is `seed-set failed-set
/// digest`: the FNV-1a from offset basis 1469598103934665603
/// (golden::fnv1a64) of the plan's case report (wall clock zeroed)
/// with PM run from scratch (`-`) or seeded with the fresh plan of
/// seed-set. The digests were generated, and checked against the frozen
/// map-based run_pm that the dense planner replaced, before that
/// reference was retired.
TEST(SerializeGolden, PmPlanDigestsUpToThreeFailures) {
  const sdwan::Network net = core::make_att_network();
  std::istringstream lines(read_data_file("pm_plan_digests_att_k3.txt"));
  struct Line {
    std::string text, seed, failed, digest;
  };
  std::vector<Line> entries;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    Line entry;
    entry.text = line;
    std::istringstream fields(line);
    fields >> entry.seed >> entry.failed >> entry.digest;
    entries.push_back(std::move(entry));
  }
  // C(6,1) + C(6,2) + C(6,3) fresh plans, then each k = 2, 3 set seeded
  // from each of its (k-1)-subsets: 15 * 2 + 20 * 3.
  ASSERT_EQ(entries.size(), (6u + 15u + 20u) + (15u * 2u + 20u * 3u));

  std::map<std::string, core::RecoveryPlan> fresh;
  for (const Line& entry : entries) {
    const sdwan::FailureState state(net, {parse_ids(entry.failed)});
    core::PmOptions options;
    if (entry.seed != "-") {
      const auto seed = fresh.find(entry.seed);
      ASSERT_NE(seed, fresh.end()) << entry.text << ": seed not listed yet";
      options.seed = &seed->second;
    }
    core::RecoveryPlan plan = core::run_pm(state, options);
    plan.solve_seconds = 0.0;
    const std::string report = core::write_case_report(
        state.scenario().label(net), plan, core::evaluate_plan(state, plan));
    EXPECT_EQ(hex64(fnv1a64(report)), entry.digest) << entry.text;
    if (entry.seed == "-") fresh.emplace(entry.failed, std::move(plan));
  }
}

/// serialize -> deserialize -> serialize is byte-identical.
void expect_fixed_point(const core::RecoveryPlan& plan) {
  const std::string once = core::plan_to_json(plan).to_string(2);
  const core::RecoveryPlan back =
      core::plan_from_json(JsonValue::parse(once));
  const std::string twice = core::plan_to_json(back).to_string(2);
  EXPECT_EQ(once, twice) << "algorithm " << plan.algorithm;
}

TEST(SerializeProperty, RoundTripIsByteIdenticalAcrossAlgorithms) {
  const sdwan::Network net = core::make_att_network();
  const std::vector<std::vector<sdwan::ControllerId>> scenarios = {
      {3}, {4}, {3, 4}, {0, 3, 4}};
  for (const auto& failed : scenarios) {
    const sdwan::FailureState state(net, {failed});
    expect_fixed_point(core::run_pm(state));
    expect_fixed_point(core::run_naive_nearest(state));
    expect_fixed_point(core::run_retroflow(state));
    expect_fixed_point(core::run_pg(state));
  }
}

TEST(SerializeProperty, RoundTripPreservesEveryField) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{3, 4}});
  const core::RecoveryPlan plan = core::run_pg(state);
  const core::RecoveryPlan back =
      core::plan_from_json(JsonValue::parse(
          core::plan_to_json(plan).to_string()));
  EXPECT_EQ(back.algorithm, plan.algorithm);
  EXPECT_EQ(back.mapping, plan.mapping);
  EXPECT_EQ(back.sdn_assignments, plan.sdn_assignments);
  EXPECT_EQ(back.whole_switch_control, plan.whole_switch_control);
  EXPECT_DOUBLE_EQ(back.middle_layer_ms, plan.middle_layer_ms);
  EXPECT_DOUBLE_EQ(back.solve_seconds, plan.solve_seconds);
}

// ---------------------------------------------------------------------
// write_case_report == case_report_to_json(...).to_string(0)
// ---------------------------------------------------------------------

void expect_writer_matches_dom(const std::string& label,
                               const core::RecoveryPlan& plan,
                               const core::RecoveryMetrics& metrics) {
  const std::string dom =
      core::case_report_to_json(label, plan, metrics).to_string(0);
  const std::string streamed =
      core::write_case_report(label, plan, metrics);
  EXPECT_EQ(streamed, dom) << "algorithm '" << plan.algorithm << "'";
  EXPECT_EQ(streamed.capacity(), streamed.size());
}

TEST(SerializeWriter, MatchesDomOnEveryAttCaseAndAlgorithm) {
  const sdwan::Network net = core::make_att_network();
  for (int k = 1; k <= 2; ++k) {
    for (const auto& scenario : sdwan::enumerate_failures(net, k)) {
      const sdwan::FailureState state(net, scenario);
      for (core::RecoveryPlan plan :
           {core::run_pm(state), core::run_naive_nearest(state),
            core::run_retroflow(state), core::run_pg(state)}) {
        const core::RecoveryMetrics metrics =
            core::evaluate_plan(state, plan);
        expect_writer_matches_dom(scenario.label(net), plan, metrics);
      }
    }
  }
}

TEST(SerializeWriter, EscapesNotesAndLabelsLikeTheDom) {
  core::RecoveryPlan plan;
  plan.algorithm = "al\"go";
  plan.note = std::string("quote\" back\\slash \x01\x1f\x7f \n\r\t\b\f ") +
              "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80";
  core::RecoveryMetrics metrics;
  metrics.algorithm = plan.note;
  expect_writer_matches_dom("(\"a\", \\b\n)", plan, metrics);
  expect_writer_matches_dom(std::string("nul\0inside", 11), plan, metrics);
}

TEST(SerializeWriter, NumbersTakeTheDomSpelling) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      kNaN, kInf, -kInf, -0.0, 0.0, 9.0e15, -9.0e15, 8999999999999999.0,
      -8999999999999999.0, 9000000000000001.0, 9007199254740993.0, 1e300,
      5e-324, 0.1, -2.5, 3.8399999999999999};
  for (const double v : values) {
    core::RecoveryPlan plan;
    plan.algorithm = "x";
    plan.middle_layer_ms = v;
    plan.solve_seconds = v;
    core::RecoveryMetrics m;
    m.recovered_flow_fraction = v;
    m.used_control_resource = v;
    m.available_control_resource = v;
    m.total_overhead_ms = v;
    m.per_flow_overhead_ms = v;
    m.ideal_total_delay_ms = v;
    m.solve_seconds = v;
    m.programmability = {v, v, v, v, v, v, 3};
    m.controller_load[0] = v;
    m.controller_load[-1] = -v;
    if (std::isfinite(v) && std::abs(v) < 9.3e18) {
      m.least_programmability = static_cast<std::int64_t>(v);
      m.total_programmability = -static_cast<std::int64_t>(v);
    }
    expect_writer_matches_dom("n", plan, m);
  }
}

TEST(SerializeProperty, UnsortedOrDuplicatedAssignmentsParseToTheSortedPlan) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{3, 4}});
  const core::RecoveryPlan plan = core::run_pg(state);
  ASSERT_GE(plan.sdn_assignments.size(), 3u);
  JsonValue json = core::plan_to_json(plan);
  JsonValue& entries = json["sdn_assignments"];
  // Reverse the entries and repeat the first and the last of them.
  JsonValue shuffled = JsonValue::array();
  for (std::size_t k = entries.size(); k-- > 0;) {
    shuffled.push_back(entries.at(k));
  }
  shuffled.push_back(entries.at(0));
  shuffled.push_back(entries.at(entries.size() - 1));
  entries = std::move(shuffled);
  const core::RecoveryPlan back = core::plan_from_json(json);
  EXPECT_EQ(back.sdn_assignments, plan.sdn_assignments);
  EXPECT_EQ(core::plan_to_json(back).to_string(),
            core::plan_to_json(plan).to_string());
  EXPECT_TRUE(core::validate_plan(state, back).empty());
}

TEST(SerializeWriter, EmptyCollectionsMatchTheDom) {
  // Empty mapping, sdn_assignments and controller_load.
  expect_writer_matches_dom("", core::RecoveryPlan{}, core::RecoveryMetrics{});
  core::RecoveryPlan mapped_only;
  mapped_only.mapping[7] = 2;
  expect_writer_matches_dom("()", mapped_only, core::RecoveryMetrics{});
}

TEST(SerializeWriter, WholeSwitchAndPartialPerAssignmentControllers) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{0, 3, 4}});
  core::RecoveryPlan retroflow = core::run_retroflow(state);
  ASSERT_TRUE(retroflow.whole_switch_control);
  expect_writer_matches_dom("rf", retroflow,
                            core::evaluate_plan(state, retroflow));

  // PG with controllers recorded for only some assignments: every other
  // entry, plus the first and the last, defers to the mapping (-1).
  core::RecoveryPlan pg = core::run_pg(state);
  ASSERT_GT(pg.sdn_assignments.size(), 4u);
  for (std::size_t k = 1; k < pg.sdn_assignments.size(); k += 2) {
    pg.sdn_assignments[k].controller = -1;
  }
  pg.sdn_assignments.front().controller = -1;
  pg.sdn_assignments.back().controller = -1;
  expect_writer_matches_dom("pg", pg, core::evaluate_plan(state, pg));
}

TEST(SerializeWriter, RandomPlansMatchTheDom) {
  std::mt19937_64 rng(20211017);
  const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -0.0, 9.0e15, 1.0 / 3.0};
  auto number = [&]() -> double {
    switch (rng() % 4) {
      case 0: return specials[rng() % specials.size()];
      case 1: return static_cast<double>(rng() % 1000);
      default: return std::ldexp(static_cast<double>(rng() % 100000), -7);
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    core::RecoveryPlan plan;
    plan.algorithm = trial % 3 == 0 ? "" : "alg" + std::to_string(trial);
    plan.whole_switch_control = rng() % 2 == 0;
    plan.proven_optimal = rng() % 2 == 0;
    plan.middle_layer_ms = number();
    plan.solve_seconds = number();
    if (rng() % 2 == 0) plan.note = std::string(1, static_cast<char>(rng() % 128));
    const int switches = static_cast<int>(rng() % 12);
    for (int i = 0; i < switches; ++i) {
      const sdwan::SwitchId sw = static_cast<sdwan::SwitchId>(rng() % 40);
      plan.mapping[sw] = static_cast<sdwan::ControllerId>(rng() % 6);
      const int flows = static_cast<int>(rng() % 8);
      for (int f = 0; f < flows; ++f) {
        const auto flow = static_cast<sdwan::FlowId>(rng() % 600);
        plan.sdn_assignments.push_back(
            {sw, flow,
             rng() % 3 == 0 ? static_cast<sdwan::ControllerId>(rng() % 6)
                            : -1});
      }
    }
    core::sort_assignments(plan);
    core::RecoveryMetrics m;
    m.algorithm = plan.algorithm;
    m.least_programmability = static_cast<std::int64_t>(rng() % 50);
    m.total_programmability = static_cast<std::int64_t>(rng());
    m.recoverable_flow_count = rng() % 600;
    m.recovered_flow_count = rng() % 600;
    m.recovered_flow_fraction = number();
    m.used_control_resource = number();
    m.total_overhead_ms = number();
    m.programmability = {number(), number(), number(), number(),
                         number(), number(), rng() % 600};
    const int loads = static_cast<int>(rng() % 5);
    for (int j = 0; j < loads; ++j) {
      m.controller_load[static_cast<sdwan::ControllerId>(rng() % 6)] =
          number();
    }
    expect_writer_matches_dom("case " + std::to_string(trial), plan, m);
  }
}

}  // namespace
}  // namespace pm
