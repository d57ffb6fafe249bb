// Fig. 7 — computation time of PM as a percentage of Optimal, under one,
// two and three controller failures.
//
// The paper reports PM at 2.54% / 1.77% / 2.18% of GUROBI's time on
// average. Our Optimal substitutes a from-scratch branch-and-bound that
// runs to its fixed work budget (core::kOptimalPivotBudget simplex pivots
// per case) on the large instances, so the absolute ratio is smaller
// still — the reproduced shape is "the heuristic is orders of magnitude
// cheaper and the gap grows with instance size". The plans are the same
// on every host; the wall times reported here are what this host took to
// spend that budget.
//
// Flags: --cases=<k,k,...> failure sizes (each 1..5), --jobs=N
// (parallel cases; reported wall times are per-case solver times, so the
// ratios are unaffected by parallelism).
#include <iostream>
#include <numeric>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const sdwan::Network net = core::make_att_network();
  const std::vector<long long> cases =
      args.get_ints("cases", "1,2,3", 1, net.controller_count() - 1);
  const int jobs = util::parse_jobs_flag(args);
  obs::apply_log_level_flag(args);

  std::cout << "=== Fig. 7: computation time, PM as % of Optimal ===\n";

  util::TextTable t({"failures", "cases", "PM mean (ms)",
                     "Optimal mean (s)", "PM / Optimal"});
  for (const long long k : cases) {
    core::RunnerOptions opts;
    opts.run_optimal = true;
    opts.jobs = jobs;
    const auto results =
        core::run_failure_sweep(net, static_cast<int>(k), opts);
    double pm_total = 0.0;
    double opt_total = 0.0;
    for (const auto& r : results) {
      pm_total += r.pm_seconds;
      opt_total += r.optimal_seconds;
    }
    const double n = static_cast<double>(results.size());
    const double ratio = opt_total <= 0.0 ? 0.0 : pm_total / opt_total;
    t.add_row({std::to_string(k), std::to_string(results.size()),
               bench::num(1000.0 * pm_total / n, 3),
               bench::num(opt_total / n, 2),
               bench::num(100.0 * ratio, 4) + "%"});
  }
  t.print(std::cout);
  std::cout << "(paper: 2.54% / 1.77% / 2.18% of GUROBI on average; here "
               "Optimal runs to its budget of "
            << core::kOptimalPivotBudget
            << " pivots per case, see DESIGN.md substitution 2)\n";
  return 0;
}
