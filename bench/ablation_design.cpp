// Ablation bench (extension beyond the paper): quantifies the design
// choices DESIGN.md calls out, on the two-failure sweep.
//
//   1. PM stage 2 (utilization pass) on/off — the paper's third design
//      consideration ("fully utilize controllers' control resource").
//   2. PM switch-selection rule: most-least-programmability-flows (the
//      paper's line 12) vs. first-viable switch.
//   3. RetroFlow controller candidates 1..4 — how much of PM's advantage
//      is granularity vs. merely smarter switch packing.
//   4. Path-diversity policy (bounded simple paths with slack 1/2,
//      shortest-path DAG, next-hop count) — substitution 3 in DESIGN.md.
//   5. lambda sweep for the combined objective of problem (P).
#include <iostream>

#include "bench_common.hpp"
#include "core/fmssm.hpp"
#include "milp/branch_bound.hpp"

namespace {

using namespace pm;

struct SweepStats {
  double mean_least = 0.0;
  double mean_total = 0.0;
  double mean_recovered = 0.0;
  double mean_overhead = 0.0;
};

template <typename PlanFn>
SweepStats sweep(const sdwan::Network& net, int k, PlanFn&& make_plan) {
  SweepStats s;
  const auto scenarios = sdwan::enumerate_failures(net, k);
  for (const auto& sc : scenarios) {
    const sdwan::FailureState state(net, sc);
    const core::RecoveryPlan plan = make_plan(state);
    const auto m = core::evaluate_plan(state, plan);
    s.mean_least += static_cast<double>(m.least_programmability);
    s.mean_total += static_cast<double>(m.total_programmability);
    s.mean_recovered += m.recovered_flow_fraction;
    s.mean_overhead += m.per_flow_overhead_ms;
  }
  const double n = static_cast<double>(scenarios.size());
  s.mean_least /= n;
  s.mean_total /= n;
  s.mean_recovered /= n;
  s.mean_overhead /= n;
  return s;
}

void add_row(util::TextTable& t, const std::string& name,
             const SweepStats& s) {
  t.add_row({name, bench::num(s.mean_least, 2), bench::num(s.mean_total, 0),
             bench::pct(s.mean_recovered), bench::num(s.mean_overhead, 2)});
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  obs::apply_log_level_flag(args);

  std::cout << "=== Ablation: PM design choices (two-failure sweep means) "
               "===\n";
  const sdwan::Network net = core::make_att_network();

  {
    std::cout << "\n[1] PM utilization pass (Algorithm 1 lines 42-50)\n";
    util::TextTable t({"variant", "mean least", "mean total",
                       "mean recovered", "mean overhead ms"});
    add_row(t, "PM (full)", sweep(net, 2, [](const auto& st) {
              return core::run_pm(st);
            }));
    add_row(t, "PM w/o stage 2", sweep(net, 2, [](const auto& st) {
              return core::run_pm(st, {.skip_utilization_pass = true});
            }));
    t.print(std::cout);
  }

  {
    std::cout << "\n[2] PM switch-selection rule (line 12)\n";
    util::TextTable t({"variant", "mean least", "mean total",
                       "mean recovered", "mean overhead ms"});
    add_row(t, "most least-pro flows", sweep(net, 2, [](const auto& st) {
              return core::run_pm(st);
            }));
    add_row(t, "first viable switch", sweep(net, 2, [](const auto& st) {
              return core::run_pm(st, {.greedy_switch_selection = false});
            }));
    t.print(std::cout);
  }

  {
    std::cout << "\n[3] RetroFlow nearest-controller candidates\n";
    util::TextTable t({"variant", "mean least", "mean total",
                       "mean recovered", "mean overhead ms"});
    for (int c = 1; c <= 4; ++c) {
      add_row(t, "candidates=" + std::to_string(c),
              sweep(net, 2, [c](const auto& st) {
                return core::run_retroflow(st,
                                           {.controller_candidates = c});
              }));
    }
    add_row(t, "PM (reference)", sweep(net, 2, [](const auto& st) {
              return core::run_pm(st);
            }));
    t.print(std::cout);
  }

  {
    std::cout << "\n[4] Path-diversity policy (p_i^l definition)\n";
    util::TextTable t({"policy", "mean least", "mean total",
                       "mean recovered", "mean overhead ms"});
    struct Policy {
      std::string name;
      graph::PathCountOptions options;
    };
    const std::vector<Policy> policies = {
        {"bounded, slack 1, cap 4 (default)",
         {graph::PathCountPolicy::kBoundedSimplePaths, 1, 4}},
        {"bounded, slack 1, uncapped",
         {graph::PathCountPolicy::kBoundedSimplePaths, 1, 1'000'000}},
        {"bounded, slack 2, uncapped",
         {graph::PathCountPolicy::kBoundedSimplePaths, 2, 1'000'000}},
        {"shortest-path DAG",
         {graph::PathCountPolicy::kShortestPathDag, 1, 1'000'000}},
        {"next-hop count",
         {graph::PathCountPolicy::kNextHopCount, 1, 1'000'000}},
    };
    for (const auto& p : policies) {
      sdwan::NetworkConfig cfg;
      cfg.controller_capacity = 0.0;  // default ATT capacity
      cfg.path_count = p.options;
      const sdwan::Network variant = core::make_att_network(cfg);
      add_row(t, p.name, sweep(variant, 2, [](const auto& st) {
                return core::run_pm(st);
              }));
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n[5] lambda sweep, case (13, 20): solver objective "
                 "trade-off\n";
    util::TextTable t({"lambda", "least r", "total", "status"});
    sdwan::FailureScenario sc;
    for (int j = 0; j < net.controller_count(); ++j) {
      const int loc = net.controller(j).location;
      if (loc == 13 || loc == 20) sc.failed.push_back(j);
    }
    const sdwan::FailureState state(net, sc);
    for (const double lambda : {1e-6, 1e-4, 1e-2, 1.0}) {
      core::FmssmOptions fmssm;
      fmssm.lambda = lambda;
      const auto outcome = core::run_optimal(state, fmssm);
      if (!outcome.plan) {
        t.add_row({bench::num(lambda, 6), "-", "-",
                   milp::to_string(outcome.status)});
        continue;
      }
      const auto m = core::evaluate_plan(state, *outcome.plan);
      t.add_row({bench::num(lambda, 6),
                 std::to_string(m.least_programmability),
                 std::to_string(m.total_programmability),
                 milp::to_string(outcome.status)});
    }
    t.print(std::cout);
    std::cout << "(small lambda preserves the two-stage priority of r; "
                 "large lambda trades balance for raw total)\n";
  }
  return 0;
}
