// custom_topology — run PM on YOUR network: load a Topology Zoo GML file
// or generate a synthetic WAN, auto-place controllers, fail some, and
// compare the recovery algorithms.
//
// Controller placement: greedy k-center (farthest-point) over propagation
// delays, then each switch joins its nearest controller's domain — a
// standard, reproducible placement for topologies without a published
// controller layout.
//
// Usage:
//   ./build/examples/custom_topology --gml=path/to/AttMpls.gml
//   ./build/examples/custom_topology --waxman=40 --controllers=5
//        --fail=2 --capacity=800
#include <algorithm>
#include <climits>
#include <cstdint>
#include <iostream>
#include <map>

#include "topo/placement.hpp"
#include "obs/obs.hpp"
#include "util/strings.hpp"

#include "core/runner.hpp"
#include "graph/shortest_path.hpp"
#include "topo/generators.hpp"
#include "topo/gml.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pm;

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const std::string gml = args.get_string("gml", "");
  const auto waxman_n =
      static_cast<int>(args.get_int("waxman", 30, 2, INT_MAX));
  const auto controllers =
      static_cast<int>(args.get_int("controllers", 4, 2, INT_MAX));
  const auto fail =
      static_cast<int>(args.get_int("fail", 1, 1, controllers - 1));
  const double capacity =
      args.get_double("capacity", 0.0, 0.0, util::kUnbounded);
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1, 0, LLONG_MAX));
  obs::apply_log_level_flag(args);

  topo::Topology topology;
  try {
    topology = gml.empty() ? topo::waxman(waxman_n, 0.5, 0.25, seed)
                           : topo::load_gml_file(gml);
  } catch (const std::exception& e) {
    obs::log().error(std::string("failed to load topology: ") + e.what());
    return 1;
  }
  std::cout << "topology '" << topology.name() << "': "
            << topology.node_count() << " nodes, "
            << topology.link_count() << " links\n";
  // Refused like a get_int range error, once the node count is known.
  if (controllers > topology.node_count()) {
    std::cerr << "custom_topology: --controllers=" << controllers
              << " is not an integer in [2, " << topology.node_count()
              << "]\n";
    return 2;
  }

  const auto domains = topo::k_center_domains(topology, controllers);
  sdwan::NetworkConfig config;
  // Default capacity: generous enough for normal operation plus slack.
  config.controller_capacity =
      capacity > 0.0
          ? capacity
          : 1.4 * topology.node_count() * (topology.node_count() - 1) *
                3.0 / controllers;
  const sdwan::Network net(std::move(topology), domains, config);

  std::cout << "controllers:";
  for (int j = 0; j < net.controller_count(); ++j) {
    std::cout << " " << net.controller(j).name << "("
              << net.controller(j).domain.size() << " switches, load "
              << util::format_double(net.normal_load(j), 0) << ")";
  }
  std::cout << "\n";

  // Fail the `fail` most-loaded controllers — the hardest case.
  std::vector<sdwan::ControllerId> by_load;
  for (int j = 0; j < net.controller_count(); ++j) by_load.push_back(j);
  std::sort(by_load.begin(), by_load.end(),
            [&](sdwan::ControllerId a, sdwan::ControllerId b) {
              return net.normal_load(a) > net.normal_load(b);
            });
  sdwan::FailureScenario scenario;
  scenario.failed.assign(by_load.begin(), by_load.begin() + fail);
  std::sort(scenario.failed.begin(), scenario.failed.end());

  core::RunnerOptions opts;
  opts.run_optimal = false;
  const core::CaseResult r = core::run_case(net, scenario, opts);

  std::cout << "\nfailure " << r.label << " (the " << fail
            << " most-loaded controllers):\n";
  util::TextTable t({"algorithm", "least", "total", "recovered flows",
                     "switches", "overhead ms/flow"});
  for (const auto& [name, m] : r.metrics) {
    t.add_row({name, std::to_string(m.least_programmability),
               std::to_string(m.total_programmability),
               util::format_double(100.0 * m.recovered_flow_fraction, 1) +
                   "%",
               std::to_string(m.recovered_switch_count) + "/" +
                   std::to_string(m.offline_switch_count),
               util::format_double(m.per_flow_overhead_ms, 2)});
  }
  t.print(std::cout);
  return 0;
}
