#include "core/runner.hpp"

#include "util/task_pool.hpp"

namespace pm::core {

CaseResult run_case(const sdwan::Network& net,
                    const sdwan::FailureScenario& scenario,
                    const RunnerOptions& options) {
  CaseResult result;
  result.scenario = scenario;
  result.label = scenario.label(net);
  const sdwan::FailureState state(net, scenario);

  auto record = [&](const RecoveryPlan& plan) {
    result.metrics[plan.algorithm] = evaluate_plan(state, plan);
    result.violations[plan.algorithm] = validate_plan(state, plan);
  };

  const RecoveryPlan pm_plan = run_pm(state);
  result.pm_seconds = pm_plan.solve_seconds;
  record(pm_plan);
  record(run_retroflow(state));
  record(run_pg(state));

  if (options.run_optimal) {
    const OptimalOutcome opt = run_optimal(state);
    result.optimal_seconds = opt.seconds;
    if (opt.plan) {
      result.optimal_available = true;
      result.optimal_proven = opt.plan->proven_optimal;
      record(*opt.plan);
    }
  }
  return result;
}

std::vector<CaseResult> run_failure_sweep(const sdwan::Network& net, int k,
                                          const RunnerOptions& options) {
  const auto scenarios = sdwan::enumerate_failures(net, k);
  util::TaskPool pool(options.jobs);
  return pool.parallel_map(scenarios, [&](std::size_t,
                                          const sdwan::FailureScenario& s) {
    return run_case(net, s, options);
  });
}

}  // namespace pm::core
