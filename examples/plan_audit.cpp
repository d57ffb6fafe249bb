// plan_audit — validate a stored recovery plan against a failure
// scenario: the operational "is this runbook still good?" check.
//
// Reads a plan JSON (as written by `att_failover --json=...`), rebuilds
// the failure state, validates every FMSSM constraint, recomputes the
// metrics, and diffs the plan against what PM would compute today — so
// topology or capacity drift since the plan was stored shows up as
// violations or churn.
//
// Usage:
//   ./build/examples/att_failover --fail=13,20 --json=plan.json
//   ./build/examples/plan_audit --fail=13,20 --plan=plan.json
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"
#include "failure_flag.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const std::string fail_spec = args.get_string("fail", "13,20");
  const std::string plan_path = args.get_string("plan", "");
  obs::apply_log_level_flag(args);
  if (plan_path.empty()) {
    obs::log().error("usage: plan_audit --fail=<nodes> --plan=<plan.json>");
    return 2;
  }

  // Load the plan (accepts either a bare plan or a full case report).
  std::ifstream in(plan_path);
  if (!in) {
    obs::log().error("cannot open " + plan_path);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  core::RecoveryPlan plan;
  try {
    const auto json = util::JsonValue::parse(buf.str());
    plan = core::plan_from_json(json.contains("plan") ? json.at("plan")
                                                      : json);
  } catch (const std::exception& e) {
    obs::log().error(std::string("failed to load plan: ") + e.what());
    return 2;
  }

  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureScenario scenario = examples::parse_failure_or_exit(
      net, "plan_audit", "--fail=" + fail_spec, fail_spec);
  const sdwan::FailureState state(net, scenario);

  std::cout << "=== Auditing " << plan.algorithm << " plan from "
            << plan_path << " against failure " << scenario.label(net)
            << " ===\n";

  const auto violations = core::validate_plan(state, plan);
  if (violations.empty()) {
    std::cout << "constraints: all satisfied ✓\n";
  } else {
    std::cout << "constraints: " << violations.size() << " VIOLATION(S)\n";
    for (const auto& v : violations) std::cout << "  - " << v << "\n";
  }

  const auto metrics = core::evaluate_plan(state, plan);
  const core::RecoveryPlan fresh = core::run_pm(state);
  const auto fresh_metrics = core::evaluate_plan(state, fresh);
  const auto churn = core::plan_churn(plan, fresh);

  util::TextTable t({"", "stored plan", "fresh PM"});
  t.add_row({"least programmability",
             std::to_string(metrics.least_programmability),
             std::to_string(fresh_metrics.least_programmability)});
  t.add_row({"total programmability",
             std::to_string(metrics.total_programmability),
             std::to_string(fresh_metrics.total_programmability)});
  t.add_row({"recovered flows",
             util::format_double(100.0 * metrics.recovered_flow_fraction, 1)
                 + "%",
             util::format_double(
                 100.0 * fresh_metrics.recovered_flow_fraction, 1) + "%"});
  t.add_row({"per-flow overhead ms",
             util::format_double(metrics.per_flow_overhead_ms, 2),
             util::format_double(fresh_metrics.per_flow_overhead_ms, 2)});
  t.print(std::cout);

  std::cout << "drift vs fresh PM: " << churn.mappings_changed
            << " remappings, " << churn.entries_added << " entries to add, "
            << churn.entries_removed << " to remove ("
            << (churn.total() == 0 ? "plan is current"
                                   : "plan is stale — consider reinstall")
            << ")\n";
  return violations.empty() ? 0 : 1;
}
