// Fig. 4 — results of one controller failure: all 6 single-failure cases.
//
// Expected shape (Sec. VI-C-1): with one failure the remaining control
// plane has ample capacity, so every algorithm recovers (nearly) all
// recoverable flows with the same programmability; the algorithms only
// separate on per-flow communication overhead, where PG pays for its
// middle layer and PM is lowest.
//
// Flags: --no-optimal/--quick, --optimal-time=<sec>, --csv=<path>,
// --jobs=N (parallel cases; output identical at any N).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  const bench::BenchOptions options =
      bench::parse_bench_options(argc, argv, /*default_time_limit=*/10.0);

  const sdwan::Network net = core::make_att_network();
  std::cout << "=== Fig. 4: one controller failure (6 cases) ===\n";
  const auto results = core::run_failure_sweep(net, 1, options.runner());

  const bool invalid = bench::report_violations(results);

  bench::print_failure_figure("Fig. 4", results,
                              /*with_switch_counts=*/false,
                              /*with_controller_loads=*/false);
  bench::print_improvement_summary(results);
  if (!bench::maybe_write_csv(options, "fig4", results)) return 1;
  return invalid ? 1 : 0;
}
