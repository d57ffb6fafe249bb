// Scenario runner: enumerates k-controller-failure cases, runs every
// algorithm, validates the plans and collects the metrics — the engine
// behind benches paper_figures (Figs. 4-6) and fig7_computation_time.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/optimal.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/retroflow.hpp"

namespace pm::core {

struct CaseResult {
  sdwan::FailureScenario scenario;
  std::string label;  ///< e.g. "(13, 20)".

  /// Metrics per algorithm name ("PM", "RetroFlow", "PG", "Optimal").
  /// "Optimal" is absent when the solver found no incumbent in budget.
  std::map<std::string, RecoveryMetrics> metrics;

  /// Constraint violations per algorithm (expected empty; kept so benches
  /// can fail loudly instead of reporting invalid plans).
  std::map<std::string, std::vector<std::string>> violations;

  /// Optimal bookkeeping (Fig. 6 omits unproven cases; Fig. 7 uses time).
  bool optimal_available = false;
  bool optimal_proven = false;
  double optimal_seconds = 0.0;
  double pm_seconds = 0.0;
};

struct RunnerOptions {
  bool run_optimal = true;
  /// Scenario-level parallelism for run_failure_sweep (the --jobs flag).
  /// 1 keeps the historical single-threaded path; any value produces
  /// byte-identical results — cases are independent and results are
  /// collected in scenario order.
  int jobs = 1;
};

/// Runs one failure case.
CaseResult run_case(const sdwan::Network& net,
                    const sdwan::FailureScenario& scenario,
                    const RunnerOptions& options = {});

/// Runs all C(M, k) cases with exactly k failed controllers.
std::vector<CaseResult> run_failure_sweep(const sdwan::Network& net, int k,
                                          const RunnerOptions& options = {});

}  // namespace pm::core
