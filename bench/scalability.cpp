// scalability (extension bench) — heuristic runtime and recovery quality
// as the WAN grows: Waxman topologies from 25 to 150 nodes with k-center
// controller placement, failing the two most-loaded controllers.
//
// The paper evaluates only the 25-node ATT backbone; this bench shows the
// algorithms' asymptotic behaviour (PM stays in milliseconds while the
// FMSSM model size grows quadratically — the reason the exact solver
// needs budgets).
//
// Flags: --sizes=25,50,100,150 (each at least 10 nodes) --seed=1
// --jobs=N (sizes evaluated in parallel; the table is identical at any N)
#include <algorithm>
#include <climits>
#include <cstdint>
#include <iostream>

#include "bench_common.hpp"
#include "core/fmssm.hpp"
#include "topo/generators.hpp"
#include "topo/placement.hpp"
#include "util/task_pool.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  std::vector<int> node_counts;
  for (const long long n : args.get_ints("sizes", "25,50,75,100,150", 10,
                                         INT_MAX)) {
    node_counts.push_back(static_cast<int>(n));
  }
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1, 0, LLONG_MAX));
  const int jobs = util::parse_jobs_flag(args);
  obs::apply_log_level_flag(args);

  std::cout << "=== Scalability on Waxman WANs (extension) ===\n";
  util::TextTable t({"nodes", "links", "ctrls", "offline flows",
                     "PM ms", "PG ms", "RetroFlow ms", "PM total",
                     "PG total", "model vars", "model rows"});

  // One row per size; sizes are independent, so they fan out across the
  // pool and come back in input order.
  util::TaskPool pool(jobs);
  const auto rows = pool.parallel_map(
      node_counts, [&](std::size_t, int n) -> std::vector<std::string> {
        const topo::Topology topology = topo::waxman(n, 0.5, 0.25, seed);
        const int controllers = std::max(3, n / 12);
        const auto domains = topo::k_center_domains(topology, controllers);
        sdwan::NetworkConfig cfg;
        // Capacity scaled to make normal operation fit with ~15% headroom:
        // first build with huge capacity to measure loads, then rebuild.
        cfg.controller_capacity = 1e9;
        sdwan::Network probe(topology, domains, cfg);
        double max_load = 0.0;
        for (int j = 0; j < probe.controller_count(); ++j) {
          max_load = std::max(max_load, probe.normal_load(j));
        }
        cfg.controller_capacity = 1.15 * max_load;
        const sdwan::Network net(topology, domains, cfg);

        // Fail the two most-loaded controllers.
        std::vector<sdwan::ControllerId> by_load;
        for (int j = 0; j < net.controller_count(); ++j) {
          by_load.push_back(j);
        }
        std::sort(by_load.begin(), by_load.end(),
                  [&](sdwan::ControllerId a, sdwan::ControllerId b) {
                    return net.normal_load(a) > net.normal_load(b);
                  });
        sdwan::FailureScenario sc;
        sc.failed = {std::min(by_load[0], by_load[1]),
                     std::max(by_load[0], by_load[1])};
        const sdwan::FailureState state(net, sc);

        const auto pm = core::run_pm(state);
        const auto pg = core::run_pg(state);
        const auto retro = core::run_retroflow(state);
        const auto m_pm = core::evaluate_plan(state, pm);
        const auto m_pg = core::evaluate_plan(state, pg);
        const auto problem = core::build_fmssm(state);

        return {std::to_string(n), std::to_string(topology.link_count()),
                std::to_string(controllers),
                std::to_string(state.offline_flows().size()),
                bench::num(pm.solve_seconds * 1000, 2),
                bench::num(pg.solve_seconds * 1000, 2),
                bench::num(retro.solve_seconds * 1000, 2),
                std::to_string(m_pm.total_programmability),
                std::to_string(m_pg.total_programmability),
                std::to_string(problem.model.variable_count()),
                std::to_string(problem.model.constraint_count())};
      });
  for (const auto& row : rows) t.add_row(row);
  t.print(std::cout);
  return 0;
}
