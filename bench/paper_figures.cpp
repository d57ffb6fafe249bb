// paper_figures — Figs. 4, 5 and 6 of the paper: every case of k = 1, 2
// or 3 failed ATT controllers, recovered by RetroFlow, PG, PM and Optimal.
//
// Expected shapes (Sec. VI-C):
//  * k = 1 (Fig. 4, 6 cases): the remaining control plane has ample
//    capacity, so every algorithm recovers (nearly) all recoverable flows
//    with the same programmability; the algorithms only separate on
//    per-flow communication overhead, where PG pays for its middle layer
//    and PM is lowest.
//  * k = 2 (Fig. 5, 15 cases): RetroFlow's least programmability is 0
//    (unrecovered flows) and its totals trail badly — the headline case
//    (13, 20) strands hub switch 13 because its switch-level control cost
//    exceeds every controller's residual capacity, while PM recovers it
//    fine-grainedly. PM tracks PG/Optimal closely; PG pays the
//    middle-layer overhead.
//  * k = 3 (Fig. 6, 20 cases): severe capacity scarcity. RetroFlow
//    recovers only a fraction of flows; PM stays close to PG; the solver
//    behind Optimal no longer closes the gap within its budget on every
//    case (the paper reports results for only 12 of 20 cases).
//
// Optimal runs every case to core::kOptimalPivotBudget simplex pivots, so
// every column, Optimal's included, is the same on any host and at any
// --jobs.
//
// Usage: paper_figures [--k=1|2|3] [--quick] [--csv=PATH] [--jobs=N]
//   --k      failed controllers per case (default 2); anything outside
//            1..3 exits 2 and writes nothing.
//   --quick  leaves Optimal out.
//   --csv    writes one row per (case, algorithm) after a `#`-comment
//            run-metadata block (command line, build type, UTC time).
//   --jobs   runs cases in parallel; stdout is identical at any N.
// Exits 1 when any plan violates a constraint or the CSV cannot be
// written.
#include <algorithm>
#include <array>
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/csv.hpp"

namespace {

using namespace pm;

/// What differs between Figs. 4, 5 and 6, indexed by k - 1.
struct Figure {
  const char* name;          ///< "Fig. 5"
  const char* title;         ///< "two controller failures"
  const char* experiment;    ///< CSV `experiment` column
  bool switch_and_load_panels;  ///< prints panels (d) and (e)
  const char* paper_note;    ///< appended to the Optimal summary line
};

constexpr std::array<Figure, 3> kFigures = {{
    {"Fig. 4", "one controller failure", "fig4", false, ""},
    {"Fig. 5", "two controller failures", "fig5", true, ""},
    {"Fig. 6", "three controller failures", "fig6", true,
     "; the paper reports Optimal results for 12/20 cases"},
}};

const std::vector<std::string> kAlgorithms = {"RetroFlow", "PG", "PM",
                                              "Optimal"};

/// "min/q1/med/q3/max" of a box-plot series.
std::string box(const util::BoxStats& b) {
  return bench::num(b.min, 0) + "/" + bench::num(b.q1, 0) + "/" +
         bench::num(b.median, 0) + "/" + bench::num(b.q3, 0) + "/" +
         bench::num(b.max, 0);
}

/// Writes one metric row per (case, algorithm) after a block of
/// `#`-comment lines that is enough to re-run the exact configuration and
/// to tell Release and Debug artifacts apart; the UTC timestamp is its one
/// deliberately non-deterministic line. False (after logging) when the
/// file cannot be written.
bool write_csv(const std::string& path, const std::string& experiment,
               const std::string& command_line,
               const std::vector<core::CaseResult>& results) {
  using bench::num;
  return obs::write_file(
      path,
      [&](std::ostream& out) {
        out << "# experiment: " << experiment << "\n";
        out << "# command: " << command_line << "\n";
#ifdef PM_BUILD_TYPE
        out << "# build_type: " << PM_BUILD_TYPE << "\n";
#endif
        const std::time_t now = std::time(nullptr);
        char stamp[32];
        if (std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                          std::gmtime(&now)) > 0) {
          out << "# generated_at: " << stamp << "\n";
        }
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
/// was any, so the run can exit non-zero on an invalid plan.
bool report_violations(const std::vector<core::CaseResult>& results) {
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

/// Prints the figure's sub-figure tables, one column per algorithm.
void print_figure(const Figure& fig,
                  const std::vector<core::CaseResult>& results) {
  using bench::num;
  using util::TextTable;

  auto metric_or = [&](const core::CaseResult& r, const std::string& algo)
      -> const core::RecoveryMetrics* {
    const auto it = r.metrics.find(algo);
    return it == r.metrics.end() ? nullptr : &it->second;
  };

  {  // (a) programmability of recovered flows (box-plot series)
    std::cout << "\n" << fig.name
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
    std::cout << "\n" << fig.name
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
    std::cout << "\n" << fig.name
              << "(c) Recovered programmable flows (% of recoverable "
                 "offline flows; higher = better)\n";
    TextTable t({"case", "RetroFlow", "PG", "PM", "Optimal"});
    for (const auto& r : results) {
      std::vector<std::string> row{r.label};
      for (const auto& algo : kAlgorithms) {
        const auto* m = metric_or(r, algo);
        row.push_back(m ? bench::pct(m->recovered_flow_fraction) : "-");
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }

  if (fig.switch_and_load_panels) {
    {  // (d) recovered switches
      std::cout << "\n" << fig.name
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

    {  // (e) control resource usage
      std::cout << "\n" << fig.name
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
  }

  {  // (f) per-flow communication overhead
    std::cout << "\n" << fig.name
              << (fig.switch_and_load_panels ? "(f)" : "(d)")
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
void print_improvement_summary(const std::vector<core::CaseResult>& results) {
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
              << bench::num(100.0 * worst, 0) << "% to "
              << bench::num(100.0 * best, 0) << "% (best case " << best_case
              << ")\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const auto k = static_cast<int>(args.get_int("k", 2, 1, std::ssize(kFigures)));
  const Figure& fig = kFigures[static_cast<std::size_t>(k - 1)];
  core::RunnerOptions runner;
  runner.run_optimal = !args.get_bool("quick", false);
  runner.jobs = util::parse_jobs_flag(args);
  const std::string csv_path = args.get_string("csv", "");
  // A bench owns no obs::Context: only --log-level applies, and the
  // trace and metrics flags are reported as unrecognized.
  obs::apply_log_level_flag(args);
  if (!csv_path.empty() && !obs::check_writable(csv_path, "csv")) return 1;

  const sdwan::Network net = core::make_att_network();
  const std::size_t cases = sdwan::enumerate_failures(net, k).size();
  std::cout << "=== " << fig.name << ": " << fig.title << " (" << cases
            << " cases) ===\n";
  const auto results = core::run_failure_sweep(net, k, runner);

  const bool invalid = report_violations(results);

  print_figure(fig, results);
  print_improvement_summary(results);
  if (runner.run_optimal) {
    int proven = 0;
    int available = 0;
    for (const auto& r : results) {
      available += r.optimal_available ? 1 : 0;
      proven += r.optimal_proven ? 1 : 0;
    }
    std::cout << "Optimal: incumbent in " << available << "/" << cases
              << " cases, proven optimal in " << proven << "/" << cases
              << " (pivot budget " << core::kOptimalPivotBudget
              << " per case" << fig.paper_note << ")\n";
  }
  if (!csv_path.empty()) {
    std::string command_line;
    for (int i = 0; i < argc; ++i) {
      if (i > 0) command_line += ' ';
      command_line += argv[i];
    }
    if (!write_csv(csv_path, fig.experiment, command_line, results)) {
      return 1;
    }
  }
  return invalid ? 1 : 0;
}
