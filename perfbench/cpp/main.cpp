// pmbench — the repository benchmark (see perfbench/README.md).
//
// Usage: pmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--commit <sha>] [--trace-out <file.jsonl>]
//
// Prints a run-metadata block, every metric by name with its unit, and
// as the last line one JSON object {"correct","attempted","failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics of the traced run with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/log.hpp"

namespace pmbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops_s", "ops/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"ok_op_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
    {"programmability_total", "count"},
};

constexpr MetricSpec kPerLayer[] = {
    {"svc.protocol.parse_us", "us"},
    {"svc.protocol.canonical_key_us", "us"},
    {"svc.plan_cache.lookup_us", "us"},
    {"svc.plan_cache.hit_ratio", "ratio"},
    {"svc.server.overhead_us", "us"},
    {"svc.server.wait_ms", "ms"},
    {"svc.payload_bytes", "bytes"},
    {"svc.plan_cache.evictions", "count"},
    {"svc.engine.state_hit_ratio", "ratio"},
    {"sdwan.failure_state_us", "us"},
    {"core.plan_us.pm", "us"},
    {"core.plan_us.retroflow", "us"},
    {"core.plan_us.pg", "us"},
    {"core.plan_us.naive", "us"},
    {"core.evaluate_us", "us"},
    {"core.serialize_us", "us"},
    {"topo.generate_ms", "ms"},
    {"sdwan.network_build_ms", "ms"},
    {"sdwan.legacy_tables_ms", "ms"},
    {"graph.diversity_all_pairs_ms", "ms"},
    {"ctrl.sim_self_ms", "ms"},
    {"ctrl.policy_us", "us"},
    {"ctrl.audit_ms", "ms"},
    {"ctrl.messages_per_cell", "count"},
    {"ctrl.retransmit_ratio", "ratio"},
    {"ctrl.stale_discarded", "count"},
    {"ctrl.recovery_sim_ms_p50", "sim_ms"},
    {"core.fmssm_build_ms", "ms"},
    {"milp.presolve_ms", "ms"},
    {"milp.root_lp_ms", "ms"},
    {"milp.root_lp_iterations", "count"},
    {"milp.nodes_explored", "count"},
    {"layer.bench.self_ms_per_op", "ms"},
    {"layer.svc.self_ms_per_op", "ms"},
    {"layer.core.self_ms_per_op", "ms"},
    {"layer.ctrl.self_ms_per_op", "ms"},
    {"layer.util.self_ms_per_op", "ms"},
    {"trace.untraced_throughput_ops_s", "ops/s"},
    {"trace.traced_throughput_ops_s", "ops/s"},
    {"trace.overhead_ops_s", "ops/s"},
};

std::string number(double v) {
  if (!std::isfinite(v)) return "-1";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pmbench: " << why
            << "\nusage: pmbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--commit <sha>] [--trace-out <file>]\n";
  std::exit(2);
}

}  // namespace

}  // namespace pmbench

int main(int argc, char** argv) {
  using namespace pmbench;
  Options options;
  std::string commit = "unknown";
  std::string trace_out;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0;
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and a positive --seconds are required");
  }

  // The service logs connection churn at info; keep stdout for results.
  pm::obs::log().set_level(pm::obs::LogLevel::kWarn);

  const std::string build_type =
#ifdef PM_BUILD_TYPE
      PM_BUILD_TYPE;
#else
      "unknown";
#endif
  const bool optimized =
      build_type == "Release" || build_type == "RelWithDebInfo";
  std::cout << "# run metadata\n"
            << "#   workload    " << options.workload << "\n"
            << "#   seed        " << options.seed << "\n"
            << "#   seconds     " << options.seconds << "\n"
            << "#   traced      " << (options.trace ? "yes" : "no") << "\n"
            << "#   nproc       " << std::thread::hardware_concurrency()
            << "\n"
            << "#   build type  " << build_type << "\n"
            << "#   git commit  " << commit << "\n"
            << "#   traffic     loopback only (127.0.0.1); no real link\n";
  if (!optimized) {
    std::cout << "#   WARNING: build type '" << build_type
              << "' is not optimized; timings are not comparable\n";
    std::cerr << "pmbench: warning: unoptimized build (" << build_type
              << ")\n";
  }

  Result result;
  try {
    if (options.workload == "serve_hits_att") {
      result = run_serve_hits(options);
    } else if (options.workload == "serve_misses_waxman150") {
      result = run_serve_misses(options);
    } else if (options.workload == "chaos_midwave_att") {
      result = run_chaos(options);
    } else if (options.workload == "optimal_att_k1") {
      result = run_optimal(options);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "pmbench: workload aborted: " << e.what() << "\n";
    return 1;
  }
  if (result.attempted == 0) {
    std::cerr << "pmbench: no operation completed\n";
    return 1;
  }

  if (options.trace && !trace_out.empty()) {
    // Bounded, so repeated traced runs keep the file small.
    constexpr std::size_t kMaxWrittenSpans = 50'000;
    if (Tracer::instance().write_jsonl(trace_out, kMaxWrittenSpans)) {
      std::cout << "# trace written to " << trace_out << " ("
                << Tracer::instance().dropped()
                << " spans over the in-memory cap)\n";
    }
  }

  std::cout << "# ops attempted " << result.attempted << ", failed "
            << result.failed << " (failed_op_ratio "
            << number(result.attempted > 0
                          ? static_cast<double>(result.failed) /
                                static_cast<double>(result.attempted)
                          : 0.0)
            << ")\n";
  for (const std::string& why : result.failures) {
    std::cout << "#   failed op: " << why << "\n";
  }

  std::string metrics;
  auto emit = [&](const MetricSpec& spec,
                  const std::map<std::string, double>& values) {
    const auto it = values.find(spec.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::cout << spec.name << " = " << number(v) << " " << spec.unit << "\n";
    if (!metrics.empty()) metrics += ",";
    metrics += std::string("\"") + spec.name + "\":{\"value\":" + number(v) +
               ",\"unit\":\"" + spec.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, result.per_layer);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, result.end_to_end);
  }
  std::cout << "{\"correct\":" << (result.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{" << metrics
            << "}}" << std::endl;
  return 0;
}
