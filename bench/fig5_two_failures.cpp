// Fig. 5 — results of two controller failures: all 15 cases.
//
// Expected shape (Sec. VI-C-2): RetroFlow's least programmability is 0
// (unrecovered flows) and its totals trail badly — the headline case
// (13, 20) strands hub switch 13 because its switch-level control cost
// exceeds every controller's residual capacity, while PM recovers it
// fine-grainedly. PM tracks PG/Optimal closely; PG pays the middle-layer
// overhead.
//
// Flags: --no-optimal/--quick, --optimal-time=<sec>, --csv=<path>,
// --jobs=N (parallel cases; output identical at any N).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  const bench::BenchOptions options =
      bench::parse_bench_options(argc, argv, /*default_time_limit=*/20.0);

  const sdwan::Network net = core::make_att_network();
  std::cout << "=== Fig. 5: two controller failures (15 cases) ===\n";
  const auto results = core::run_failure_sweep(net, 2, options.runner());

  const bool invalid = bench::report_violations(results);

  bench::print_failure_figure("Fig. 5", results,
                              /*with_switch_counts=*/true,
                              /*with_controller_loads=*/true);
  bench::print_improvement_summary(results);
  if (options.run_optimal) {
    int proven = 0;
    int available = 0;
    for (const auto& r : results) {
      available += r.optimal_available ? 1 : 0;
      proven += r.optimal_proven ? 1 : 0;
    }
    std::cout << "Optimal: incumbent in " << available << "/15 cases, "
              << "proven optimal in " << proven << "/15 (time limit "
              << bench::num(options.optimal_time_limit, 0) << "s)\n";
  }
  if (!bench::maybe_write_csv(options, "fig5", results)) return 1;
  return invalid ? 1 : 0;
}
