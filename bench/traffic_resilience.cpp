// traffic_resilience (extension bench) — quantifies the paper's
// motivation across all two-failure cases: the congestion (MLU) the
// network can still escape from under a traffic surge depends on how much
// programmability each recovery algorithm restored.
//
// For every 2-failure case: gravity traffic + surge at the busiest node,
// then greedy MLU minimization constrained to each plan's programmability
// (core/reroute.hpp). Reported: mean/worst MLU after rerouting.
//
// Flags: --surge=<factor> --total-traffic=<Mbps> --link-capacity=<Mbps>
#include <iostream>

#include "bench_common.hpp"
#include "core/naive.hpp"
#include "core/reroute.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const double surge = args.get_double("surge", 8.0, 0.0, util::kUnbounded);
  const double total_traffic =
      args.get_double("total-traffic", 200000.0, 0.0, util::kUnbounded);
  const double link_capacity =
      args.get_double("link-capacity", 10000.0, 0.0, util::kUnbounded);
  obs::apply_log_level_flag(args);

  const sdwan::Network net = core::make_att_network();
  std::cout << "=== Traffic resilience under recovery (extension) ===\n"
            << "gravity matrix " << bench::num(total_traffic, 0)
            << " Mbps, surge x" << surge
            << " at the highest-degree OFFLINE node per case, capacity "
            << bench::num(link_capacity, 0) << " Mbps\n";

  struct Acc {
    double sum = 0.0;
    double worst = 0.0;
    void add(double v) {
      sum += v;
      worst = std::max(worst, v);
    }
  };
  std::map<std::string, Acc> mlu;
  Acc no_reroute;

  const auto scenarios = sdwan::enumerate_failures(net, 2);
  util::TextTable t({"case", "no reroute", "no recovery", "RetroFlow",
                     "PM", "PG"});
  core::RerouteOptions ropts;
  ropts.link_capacity_mbps = link_capacity;

  for (const auto& sc : scenarios) {
    const sdwan::FailureState state(net, sc);
    sdwan::TrafficMatrix tm = sdwan::gravity_traffic(net, total_traffic);
    // Surge at the busiest OFFLINE node: its flows lost programmability
    // with the failure, so what each plan recovered decides whether the
    // congestion can be escaped.
    sdwan::SwitchId surge_node = state.offline_switches().front();
    int best_degree = -1;
    for (int s = 0; s < net.switch_count(); ++s) {
      if (!state.is_offline_switch(s)) continue;
      const int d = net.topology().graph().degree(s);
      if (d > best_degree) {
        best_degree = d;
        surge_node = s;
      }
    }
    sdwan::apply_source_surge(tm, net, surge_node, surge);

    const auto before = sdwan::compute_link_loads(net, tm, link_capacity);
    no_reroute.add(before.max_utilization);
    std::vector<std::string> row{sc.label(net),
                                 bench::pct(before.max_utilization)};

    auto run = [&](const std::string& label,
                   const core::RecoveryPlan& plan) {
      const auto rr = core::minimize_congestion(state, plan, tm, ropts);
      mlu[label].add(rr.final_mlu);
      row.push_back(bench::pct(rr.final_mlu));
    };
    core::RecoveryPlan none;
    none.algorithm = "none";
    run("no recovery", none);
    run("RetroFlow", core::run_retroflow(state));
    run("PM", core::run_pm(state));
    run("PG", core::run_pg(state));
    t.add_row(row);
  }
  t.print(std::cout);

  const double n = static_cast<double>(scenarios.size());
  std::cout << "\nmean MLU:  no reroute " << bench::pct(no_reroute.sum / n);
  for (const auto& label : {"no recovery", "RetroFlow", "PM", "PG"}) {
    std::cout << ", " << label << " " << bench::pct(mlu[label].sum / n);
  }
  std::cout << "\nworst MLU: no reroute " << bench::pct(no_reroute.worst);
  for (const auto& label : {"no recovery", "RetroFlow", "PM", "PG"}) {
    std::cout << ", " << label << " " << bench::pct(mlu[label].worst);
  }
  std::cout << "\n(lower is better; PM/PG should track each other and "
               "beat RetroFlow, which cannot steer the hub's flows)\n";
  return 0;
}
