// cascade_analysis (extension bench) — the cascading-controller-failure
// risk the paper cites from Yao et al. [8]: a capacity-blind takeover can
// overload the adopting controller and knock it over too.
//
// For every 1- and 2-failure case, iterates failure -> recovery ->
// overload-induced failure to a fixed point under two policies:
//   NaiveNearest — whole-switch adoption by the nearest controller with
//                  no capacity check (default OpenFlow master failover);
//   PM           — capacity-respecting fine-grained recovery.
//
// Flags: --tolerance=<fraction> (overload a controller survives),
// --jobs=N (cases simulated in parallel; tables identical at any N).
#include <iostream>

#include "bench_common.hpp"
#include "core/naive.hpp"
#include "sim/cascade.hpp"
#include "util/task_pool.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const double tolerance =
      args.get_double("tolerance", 0.0, 0.0, util::kUnbounded);
  const util::TaskPool pool(util::parse_jobs_flag(args));
  obs::apply_log_level_flag(args);

  const sdwan::Network net = core::make_att_network();
  std::cout << "=== Cascading controller failures (extension; cf. [8]) ===\n"
            << "overload tolerance "
            << bench::num(100.0 * tolerance, 0) << "%\n";

  const sim::RecoveryPolicy naive = [](const sdwan::FailureState& st) {
    return core::run_naive_nearest(st);
  };
  const sim::RecoveryPolicy pm = [](const sdwan::FailureState& st) {
    return core::run_pm(st);
  };

  for (int k = 1; k <= 2; ++k) {
    std::cout << "\n--- " << k << " initial failure(s) ---\n";
    util::TextTable t({"case", "naive: induced", "naive: final failed",
                       "naive: peak load", "PM: induced",
                       "PM: peak load"});
    int naive_cascades = 0;
    int pm_cascades = 0;
    const auto scenarios = sdwan::enumerate_failures(net, k);
    // The per-case trials run on the pool; results come back in case order.
    const auto cascades = [&](const sim::RecoveryPolicy& policy) {
      return pool.parallel_map(
          scenarios, [&](std::size_t, const sdwan::FailureScenario& sc) {
            return sim::simulate_cascade(net, sc.failed, policy, tolerance);
          });
    };
    const auto naive_runs = cascades(naive);
    const auto pm_runs = cascades(pm);
    for (std::size_t c = 0; c < scenarios.size(); ++c) {
      const auto& sc = scenarios[c];
      const auto& rn = naive_runs[c];
      const auto& rp = pm_runs[c];
      naive_cascades += rn.induced_failures() > 0 ? 1 : 0;
      pm_cascades += rp.induced_failures() > 0 ? 1 : 0;
      double naive_peak = 0.0;
      for (const auto& round : rn.rounds) {
        naive_peak = std::max(naive_peak, round.max_load_ratio);
      }
      double pm_peak = 0.0;
      for (const auto& round : rp.rounds) {
        pm_peak = std::max(pm_peak, round.max_load_ratio);
      }
      t.add_row({sc.label(net), std::to_string(rn.induced_failures()),
                 std::to_string(rn.final_failed.size()) +
                     (rn.collapsed ? " (collapse)" : ""),
                 bench::pct(naive_peak, 0),
                 std::to_string(rp.induced_failures()),
                 bench::pct(pm_peak, 0)});
    }
    t.print(std::cout);
    std::cout << "cascades: naive " << naive_cascades << ", PM "
              << pm_cascades << " (PM respects Eq. (3), so 0 by "
                 "construction)\n";
  }
  return 0;
}
