// successive_failures (extension bench) — the paper notes controllers
// "may fail simultaneously or fail successively" (Sec. I). When a second
// controller dies, an operator can recompute from scratch or extend the
// existing plan. This bench compares both on every ordered pair of
// failures: recovery quality (least/total programmability) and
// reconfiguration churn (remapped switches + flow entries touched).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  obs::apply_log_level_flag(args);

  const sdwan::Network net = core::make_att_network();
  std::cout << "=== Successive failures: incremental vs from-scratch PM "
               "(extension) ===\n";

  util::TextTable t({"sequence", "scratch total", "incr total",
                     "scratch least", "incr least", "scratch churn",
                     "incr churn"});
  double churn_scratch_sum = 0.0;
  double churn_incr_sum = 0.0;
  double total_scratch_sum = 0.0;
  double total_incr_sum = 0.0;
  int cases = 0;

  const int m = net.controller_count();
  for (int first = 0; first < m; ++first) {
    for (int second = 0; second < m; ++second) {
      if (second == first) continue;
      // Phase 1: `first` fails alone; recover.
      const sdwan::FailureState st1(net, {{first}});
      const core::RecoveryPlan plan1 = core::run_pm(st1);

      // Phase 2: `second` also fails.
      sdwan::FailureScenario sc2;
      sc2.failed = {std::min(first, second), std::max(first, second)};
      const sdwan::FailureState st2(net, sc2);

      const core::RecoveryPlan scratch = core::run_pm(st2);
      core::PmOptions incremental_opts;
      incremental_opts.seed = &plan1;
      const core::RecoveryPlan incremental =
          core::run_pm(st2, incremental_opts);

      const auto m_scratch = core::evaluate_plan(st2, scratch);
      const auto m_incr = core::evaluate_plan(st2, incremental);
      const auto churn_scratch = core::plan_churn(plan1, scratch);
      const auto churn_incr = core::plan_churn(plan1, incremental);

      const std::string label =
          "C" + std::to_string(net.controller(first).location) + " then C" +
          std::to_string(net.controller(second).location);
      t.add_row({label, std::to_string(m_scratch.total_programmability),
                 std::to_string(m_incr.total_programmability),
                 std::to_string(m_scratch.least_programmability),
                 std::to_string(m_incr.least_programmability),
                 std::to_string(churn_scratch.total()),
                 std::to_string(churn_incr.total())});
      churn_scratch_sum += static_cast<double>(churn_scratch.total());
      churn_incr_sum += static_cast<double>(churn_incr.total());
      total_scratch_sum +=
          static_cast<double>(m_scratch.total_programmability);
      total_incr_sum += static_cast<double>(m_incr.total_programmability);
      ++cases;
    }
  }
  t.print(std::cout);
  const double n = static_cast<double>(cases);
  std::cout << "\nmeans over " << cases << " ordered sequences: "
            << "churn scratch " << bench::num(churn_scratch_sum / n, 0)
            << " vs incremental " << bench::num(churn_incr_sum / n, 0)
            << " reconfigurations; total programmability scratch "
            << bench::num(total_scratch_sum / n, 0) << " vs incremental "
            << bench::num(total_incr_sum / n, 0)
            << "\n(PM is deterministic, so even from-scratch recomputation "
               "preserves most prior decisions; seeding guarantees the "
               "kept entries and never removes them)\n";
  return 0;
}
