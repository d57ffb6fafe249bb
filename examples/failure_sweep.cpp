// failure_sweep — run every k-controller-failure combination and dump one
// CSV row per (case, algorithm), ready for plotting.
//
// Usage: ./build/examples/failure_sweep [--k=2] [--optimal]
//        [--optimal-time=20] [--out=sweep.csv]
#include <iostream>

#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const sdwan::Network net = core::make_att_network();
  const auto k = static_cast<int>(
      args.get_int("k", 2, 1, net.controller_count() - 1));
  const bool with_optimal = args.get_bool("optimal", false);
  const double optimal_time =
      args.get_double("optimal-time", 20.0, 0.0, util::kUnbounded);
  const std::string out_path = args.get_string("out", "sweep.csv");
  obs::apply_log_level_flag(args);

  core::RunnerOptions opts;
  opts.run_optimal = with_optimal;
  opts.optimal.time_limit_seconds = optimal_time;

  obs::log().info("sweeping " +
                  std::to_string(sdwan::enumerate_failures(net, k).size()) +
                  " cases with k=" + std::to_string(k) + "...");
  const auto results = core::run_failure_sweep(net, k, opts);

  const auto write_csv = [&](std::ostream& out) {
    util::CsvWriter csv(out);
    csv.write_row({"case", "algorithm", "least_programmability",
                   "total_programmability", "recovered_flow_pct",
                   "recovered_switches", "offline_switches",
                   "used_control_resource", "per_flow_overhead_ms",
                   "solve_ms"});
    for (const auto& r : results) {
      for (const auto& [name, m] : r.metrics) {
        csv.write_row(
            {r.label, name, std::to_string(m.least_programmability),
             std::to_string(m.total_programmability),
             util::format_double(100.0 * m.recovered_flow_fraction, 2),
             std::to_string(m.recovered_switch_count),
             std::to_string(m.offline_switch_count),
             util::format_double(m.used_control_resource, 0),
             util::format_double(m.per_flow_overhead_ms, 4),
             util::format_double(m.solve_seconds * 1000.0, 4)});
      }
    }
  };
  if (!obs::write_file(out_path, write_csv, "sweep csv")) return 1;
  return 0;
}
