// traffic_surge — why programmability matters: a traffic surge hits the
// network while controllers are down, and only flows whose
// programmability was recovered can be steered off the hot links.
//
// The demo loads the ATT backbone with a gravity traffic matrix, fails
// controllers (default 13 and 20), injects a surge at a source node, and
// compares the congestion (maximum link utilization, MLU) reachable by
// rerouting under each algorithm's recovery plan.
//
// Default surge source: Houston (node 12), inside the failed region for
// the default (13, 20) failure — exactly where recovered programmability
// decides whether the congestion can be escaped at all.
//
// Usage: ./build/examples/traffic_surge [--fail=13,20] [--surge-node=12]
//        [--surge=8] [--total-traffic=200000] [--link-capacity=10000]
#include <iostream>

#include "core/naive.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/reroute.hpp"
#include "core/retroflow.hpp"
#include "core/scenario.hpp"
#include "failure_flag.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const sdwan::Network net = core::make_att_network();
  const std::string fail_spec = args.get_string("fail", "13,20");
  const auto surge_node = static_cast<int>(
      args.get_int("surge-node", 12, 0, net.switch_count() - 1));
  const double surge = args.get_double("surge", 8.0, 0.0, util::kUnbounded);
  const double total_traffic =
      args.get_double("total-traffic", 200000.0, 0.0, util::kUnbounded);
  const double link_capacity =
      args.get_double("link-capacity", 10000.0, 0.0, util::kUnbounded);
  obs::apply_log_level_flag(args);

  const sdwan::FailureScenario scenario = examples::parse_failure_or_exit(
      net, "traffic_surge", "--fail=" + fail_spec, fail_spec);
  const sdwan::FailureState state(net, scenario);

  sdwan::TrafficMatrix tm = sdwan::gravity_traffic(net, total_traffic);
  sdwan::apply_source_surge(tm, net, surge_node, surge);
  const auto before =
      sdwan::compute_link_loads(net, tm, link_capacity);

  std::cout << "=== Traffic surge under failure " << scenario.label(net)
            << " ===\n"
            << "surge x" << surge << " at "
            << net.topology().node(surge_node).label << ", total offered "
            << util::format_double(tm.total(), 0) << " Mbps, link capacity "
            << util::format_double(link_capacity, 0) << " Mbps\n"
            << "MLU before any rerouting: "
            << util::format_double(100.0 * before.max_utilization, 1)
            << "% (busiest link "
            << net.topology().node(before.busiest_link.first).label << " - "
            << net.topology().node(before.busiest_link.second).label
            << ", " << before.congested_links << " congested links)\n\n";

  util::TextTable t({"recovery plan", "MLU after rerouting", "flows moved",
                     "congested links left"});
  core::RerouteOptions ropts;
  ropts.link_capacity_mbps = link_capacity;

  auto evaluate = [&](const core::RecoveryPlan& plan) {
    const auto rr = core::minimize_congestion(state, plan, tm, ropts);
    std::map<sdwan::FlowId, std::vector<sdwan::SwitchId>> overrides(
        rr.new_paths.begin(), rr.new_paths.end());
    const auto after =
        sdwan::compute_link_loads(net, tm, link_capacity, overrides);
    t.add_row({plan.algorithm,
               util::format_double(100.0 * rr.final_mlu, 1) + "%",
               std::to_string(rr.moves),
               std::to_string(after.congested_links)});
  };

  core::RecoveryPlan none;
  none.algorithm = "no recovery";
  evaluate(none);
  evaluate(core::run_retroflow(state));
  evaluate(core::run_pm(state));
  evaluate(core::run_pg(state));
  t.print(std::cout);

  std::cout << "\nOnline-domain switches can always steer their flows; "
               "the difference between rows is exactly the programmability "
               "each algorithm recovered at the offline switches.\n";
  return 0;
}
