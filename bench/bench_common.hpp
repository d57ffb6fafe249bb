// Shared reporting helpers for the figure-replication benches.
//
// Each bench regenerates one table/figure of the paper as aligned text
// tables (the same series a plot would show) and, with --csv=<path>,
// dumps machine-readable rows for external replotting. CSV files start
// with a `#`-comment run-metadata block (command line, build type,
// wall-clock timestamp) so an exported artifact is self-describing.
#pragma once

#include <ctime>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace pm::bench {

inline const std::vector<std::string> kAlgorithms = {"RetroFlow", "PG",
                                                     "PM", "Optimal"};

/// Formats a double with `prec` decimals.
inline std::string num(double v, int prec = 1) {
  return util::format_double(v, prec);
}

inline std::string pct(double fraction, int prec = 1) {
  return util::format_double(100.0 * fraction, prec) + "%";
}

/// "min/q1/med/q3/max" of a box-plot series.
inline std::string box(const util::BoxStats& b) {
  return num(b.min, 0) + "/" + num(b.q1, 0) + "/" + num(b.median, 0) +
         "/" + num(b.q3, 0) + "/" + num(b.max, 0);
}

/// Standard bench options parsed from argv.
struct BenchOptions {
  bool run_optimal = true;
  double optimal_time_limit = 20.0;
  std::optional<std::string> csv_path;
  /// The invocation, verbatim, for the CSV metadata block.
  std::string command_line;
  /// --jobs=N: scenario-level parallelism of the sweep. Output is
  /// byte-identical at any value; 1 (the default) runs fully serial.
  int jobs = 1;

  core::RunnerOptions runner() const {
    core::RunnerOptions opts;
    opts.run_optimal = run_optimal;
    opts.optimal.time_limit_seconds = optimal_time_limit;
    opts.jobs = jobs;
    return opts;
  }
};

inline BenchOptions parse_bench_options(int argc, char** argv,
                                        double default_time_limit) {
  util::CliArgs args(argc, argv);
  BenchOptions o;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) o.command_line += ' ';
    o.command_line += argv[i];
  }
  o.optimal_time_limit =
      args.get_double("optimal-time", default_time_limit, 0.0,
                      util::kUnbounded);
  o.run_optimal = !args.get_bool("no-optimal", false) &&
                  !args.get_bool("quick", false);
  o.jobs = util::parse_jobs_flag(args);
  if (args.has("csv")) o.csv_path = args.get_string("csv", "");
  // A bench owns no obs::Context: only --log-level applies, and the
  // trace and metrics flags are reported as unrecognized.
  obs::apply_log_level_flag(args);
  return o;
}

/// Run metadata stamped into every bench CSV: enough to re-run the
/// exact configuration and to tell apart Release/Debug artifacts. The
/// timestamp is wall-clock (UTC) and therefore the one deliberately
/// non-deterministic line.
struct RunMetadata {
  std::string experiment;
  std::string command_line;
  std::string build_type;
  std::string timestamp_utc;
};

inline RunMetadata make_run_metadata(const BenchOptions& options,
                                     const std::string& experiment) {
  RunMetadata meta;
  meta.experiment = experiment;
  meta.command_line = options.command_line;
#ifdef PM_BUILD_TYPE
  meta.build_type = PM_BUILD_TYPE;
#endif
  std::time_t now = std::time(nullptr);
  char buf[32];
  if (std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ",
                    std::gmtime(&now)) > 0) {
    meta.timestamp_utc = buf;
  }
  return meta;
}

/// Writes the metadata block as `#`-comment lines (readers that reject
/// comments can skip lines starting with '#').
inline void write_metadata_comments(std::ostream& out,
                                    const RunMetadata& meta) {
  out << "# experiment: " << meta.experiment << "\n";
  if (!meta.command_line.empty()) {
    out << "# command: " << meta.command_line << "\n";
  }
  if (!meta.build_type.empty()) {
    out << "# build_type: " << meta.build_type << "\n";
  }
  if (!meta.timestamp_utc.empty()) {
    out << "# generated_at: " << meta.timestamp_utc << "\n";
  }
}

/// Writes per-case/algorithm metric rows as CSV if requested; false
/// (after logging) when the file cannot be written.
inline bool maybe_write_csv(const BenchOptions& options,
                            const std::string& experiment,
                            const std::vector<core::CaseResult>& results) {
  if (!options.csv_path) return true;
  return obs::write_file(
      *options.csv_path,
      [&](std::ostream& out) {
        write_metadata_comments(out, make_run_metadata(options, experiment));
        util::CsvWriter csv(out);
        csv.write_row({"experiment", "case", "algorithm",
                       "least_programmability", "total_programmability",
                       "recovered_flow_pct", "recovered_switches",
                       "offline_switches", "used_control_resource",
                       "available_control_resource",
                       "per_flow_overhead_ms", "solve_seconds"});
        for (const auto& r : results) {
          for (const auto& [name, m] : r.metrics) {
            csv.write_row({experiment, r.label, name,
                           std::to_string(m.least_programmability),
                           std::to_string(m.total_programmability),
                           num(100.0 * m.recovered_flow_fraction, 3),
                           std::to_string(m.recovered_switch_count),
                           std::to_string(m.offline_switch_count),
                           num(m.used_control_resource, 0),
                           num(m.available_control_resource, 0),
                           num(m.per_flow_overhead_ms, 4),
                           num(m.solve_seconds, 6)});
          }
        }
      },
      "csv");
}

/// Logs every constraint violation in the sweep's plans. True if there
/// was any, so the bench can exit non-zero on an invalid plan.
inline bool report_violations(const std::vector<core::CaseResult>& results) {
  bool any = false;
  for (const auto& r : results) {
    for (const auto& [algo, violations] : r.violations) {
      for (const auto& v : violations) {
        obs::log().error("INVALID PLAN " + r.label + "/" + algo + ": " + v);
        any = true;
      }
    }
  }
  return any;
}

/// Prints the standard sub-figure tables shared by Figs. 4, 5 and 6.
/// `fig` is e.g. "Fig. 5" and `subfigs` selects which panels exist.
inline void print_failure_figure(const std::string& fig,
                                 const std::vector<core::CaseResult>& results,
                                 bool with_switch_counts,
                                 bool with_controller_loads) {
  using util::TextTable;

  auto metric_or = [&](const core::CaseResult& r, const std::string& algo)
      -> const core::RecoveryMetrics* {
    const auto it = r.metrics.find(algo);
    return it == r.metrics.end() ? nullptr : &it->second;
  };

  {  // (a) programmability of recovered flows (box-plot series)
    std::cout << "\n" << fig
              << "(a) Path programmability of recovered flows "
                 "(min/q1/median/q3/max; higher = better)\n";
    TextTable t({"case", "RetroFlow", "PG", "PM", "Optimal"});
    for (const auto& r : results) {
      std::vector<std::string> row{r.label};
      for (const auto& algo : kAlgorithms) {
        const auto* m = metric_or(r, algo);
        row.push_back(m ? box(m->programmability) : "-");
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }

  {  // (b) total programmability normalized to RetroFlow
    std::cout << "\n" << fig
              << "(b) Total path programmability, % of RetroFlow "
                 "(higher = better)\n";
    TextTable t({"case", "RetroFlow", "PG", "PM", "Optimal"});
    for (const auto& r : results) {
      const auto* retro = metric_or(r, "RetroFlow");
      const double base =
          retro == nullptr ? 0.0
                           : static_cast<double>(retro->total_programmability);
      std::vector<std::string> row{r.label};
      for (const auto& algo : kAlgorithms) {
        const auto* m = metric_or(r, algo);
        if (m == nullptr) {
          row.push_back("-");
        } else if (base <= 0.0) {
          row.push_back("inf");
        } else {
          row.push_back(
              num(100.0 * static_cast<double>(m->total_programmability) /
                  base, 0) + "%");
        }
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }

  {  // (c) % recovered programmable flows
    std::cout << "\n" << fig
              << "(c) Recovered programmable flows (% of recoverable "
                 "offline flows; higher = better)\n";
    TextTable t({"case", "RetroFlow", "PG", "PM", "Optimal"});
    for (const auto& r : results) {
      std::vector<std::string> row{r.label};
      for (const auto& algo : kAlgorithms) {
        const auto* m = metric_or(r, algo);
        row.push_back(m ? pct(m->recovered_flow_fraction) : "-");
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }

  if (with_switch_counts) {  // (d) recovered switches
    std::cout << "\n" << fig
              << "(d) Recovered offline switches (higher = better)\n";
    TextTable t({"case", "offline", "RetroFlow", "PG", "PM", "Optimal"});
    for (const auto& r : results) {
      std::vector<std::string> row{r.label};
      bool first = true;
      for (const auto& algo : kAlgorithms) {
        const auto* m = metric_or(r, algo);
        if (first) {
          row.push_back(
              m ? std::to_string(m->offline_switch_count) : "-");
          first = false;
        }
        row.push_back(m ? std::to_string(m->recovered_switch_count) : "-");
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }

  if (with_controller_loads) {  // (e) control resource usage
    std::cout << "\n" << fig
              << "(e) Control resource used / available, per algorithm\n";
    TextTable t({"case", "available", "RetroFlow", "PG", "PM", "Optimal"});
    for (const auto& r : results) {
      std::vector<std::string> row{r.label};
      bool first = true;
      for (const auto& algo : kAlgorithms) {
        const auto* m = metric_or(r, algo);
        if (first) {
          row.push_back(m ? num(m->available_control_resource, 0) : "-");
          first = false;
        }
        row.push_back(m ? num(m->used_control_resource, 0) : "-");
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }

  {  // (f) per-flow communication overhead
    std::cout << "\n" << fig
              << (with_switch_counts ? "(f)" : "(d)")
              << " Per-flow communication overhead in ms "
                 "(lower = better)\n";
    TextTable t({"case", "RetroFlow", "PG", "PM", "Optimal"});
    for (const auto& r : results) {
      std::vector<std::string> row{r.label};
      for (const auto& algo : kAlgorithms) {
        const auto* m = metric_or(r, algo);
        row.push_back(m ? num(m->per_flow_overhead_ms, 2) : "-");
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }
}

/// Summary line for the headline claim of a sweep.
inline void print_improvement_summary(
    const std::vector<core::CaseResult>& results) {
  double best = 0.0;
  std::string best_case;
  double worst = 1e18;
  for (const auto& r : results) {
    const auto pm = r.metrics.find("PM");
    const auto retro = r.metrics.find("RetroFlow");
    if (pm == r.metrics.end() || retro == r.metrics.end()) continue;
    if (retro->second.total_programmability <= 0) continue;
    const double ratio =
        static_cast<double>(pm->second.total_programmability) /
        static_cast<double>(retro->second.total_programmability);
    if (ratio > best) {
      best = ratio;
      best_case = r.label;
    }
    worst = std::min(worst, ratio);
  }
  if (best > 0.0) {
    std::cout << "\nPM total programmability vs RetroFlow: from "
              << num(100.0 * worst, 0) << "% to " << num(100.0 * best, 0)
              << "% (best case " << best_case << ")\n";
  }
}

}  // namespace pm::bench
