// service_load (extension bench) — open-loop load against the recovery
// service, reporting throughput and latency percentiles cold (every
// request a cache miss) vs warm (every request a hit).
//
// By default it spawns the whole stack in-process — Engine resident on
// the ATT backbone, svc::Server on an ephemeral loopback port — so the
// measurement covers the real service path: TCP, JSONL parse, admission
// control, worker dispatch, plan (de)serialization. Point it at an
// external server with --port.
//
// The request set is every C(M, k) failure combination for k=1..max_k
// crossed with --algorithms, issued exactly once in the cold phase and
// --repeats more times in the warm phase. The bench asserts that every
// warm `result` is byte-identical to its cold counterpart — the cache
// contract the PR 5 acceptance criteria pin — and exits 1 when any
// response errs or any payload differs.
//
// Usage: ./build/bench/service_load [--connections=1] [--jobs=1]
//   [--rate=0] [--repeats=3] [--algorithms=pm] [--max-k=3]
//   [--port=0] [--host=127.0.0.1] [--json-out=BENCH_pr5.json]
//   [--log-level=warn]
//
// --rate=R schedules arrivals open-loop at R requests/s (latency then
// includes time spent waiting behind the schedule); --rate=0 runs
// closed-loop, each connection firing as fast as responses return.
// SIGINT flushes the phases finished so far and exits cleanly.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "util/cli.hpp"
#include "util/shutdown.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct PhaseStats {
  std::string name;
  std::size_t requests = 0;
  std::size_t errors = 0;
  double seconds = 0.0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

/// One line per request of the phase's schedule; `result` is the
/// response's result member re-serialized compactly (the byte-identity
/// probe), empty on error.
struct Exchange {
  double latency_ms = 0.0;
  bool ok = false;
  bool cached = false;
  std::string key;
  std::string result;
};

/// Issues `schedule[i]` (an index into `lines`) for every i, spread
/// across `connections` client connections. Open-loop when rate > 0.
std::vector<Exchange> run_phase(const std::string& host, int port,
                                const std::vector<std::string>& lines,
                                const std::vector<std::size_t>& schedule,
                                int connections, double rate,
                                double& phase_seconds) {
  std::vector<Exchange> exchanges(schedule.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point phase_start = Clock::now();

  auto worker = [&] {
    pm::svc::Client client(host, port);
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= schedule.size() || pm::util::shutdown_requested()) return;
      Clock::time_point issue = Clock::now();
      if (rate > 0.0) {
        // Open-loop: request i is due at phase_start + i/rate; latency
        // is measured from the scheduled arrival, so a server that
        // cannot keep up shows the queueing delay it causes.
        const auto due =
            phase_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        issue = due;
      }
      Exchange& ex = exchanges[i];
      try {
        const std::string response =
            client.roundtrip_line(lines[schedule[i]]);
        ex.latency_ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - issue)
                            .count();
        const pm::util::JsonValue doc =
            pm::util::JsonValue::parse(response);
        ex.ok = doc.at("ok").as_bool();
        if (ex.ok) {
          ex.cached = doc.at("cached").as_bool();
          ex.key = doc.at("key").as_string();
          ex.result = doc.at("result").to_string(0);
        }
      } catch (const std::exception& e) {
        ex.ok = false;
        pm::obs::log().warn(std::string("request failed: ") + e.what());
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  phase_seconds =
      std::chrono::duration<double>(Clock::now() - phase_start).count();
  return exchanges;
}

PhaseStats summarize(const std::string& name,
                     const std::vector<Exchange>& exchanges,
                     double seconds) {
  PhaseStats s;
  s.name = name;
  s.seconds = seconds;
  std::vector<double> latencies;
  latencies.reserve(exchanges.size());
  for (const Exchange& ex : exchanges) {
    ++s.requests;
    if (!ex.ok) {
      ++s.errors;
      continue;
    }
    latencies.push_back(ex.latency_ms);
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    s.p50_ms = pm::util::quantile_sorted(latencies, 0.50);
    s.p90_ms = pm::util::quantile_sorted(latencies, 0.90);
    s.p99_ms = pm::util::quantile_sorted(latencies, 0.99);
    s.mean_ms = pm::util::mean(latencies);
  }
  if (seconds > 0.0) {
    s.throughput_rps = static_cast<double>(s.requests) / seconds;
  }
  return s;
}

pm::util::JsonValue phase_to_json(const PhaseStats& s) {
  pm::util::JsonValue out = pm::util::JsonValue::object();
  out["requests"] =
      pm::util::JsonValue(static_cast<std::int64_t>(s.requests));
  out["errors"] = pm::util::JsonValue(static_cast<std::int64_t>(s.errors));
  out["seconds"] = pm::util::JsonValue(s.seconds);
  out["throughput_rps"] = pm::util::JsonValue(s.throughput_rps);
  out["p50_ms"] = pm::util::JsonValue(s.p50_ms);
  out["p90_ms"] = pm::util::JsonValue(s.p90_ms);
  out["p99_ms"] = pm::util::JsonValue(s.p99_ms);
  out["mean_ms"] = pm::util::JsonValue(s.mean_ms);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const std::string host = args.get_string("host", "127.0.0.1");
  int port = static_cast<int>(args.get_int("port", 0));
  // One connection by default: the cold/warm latency comparison needs
  // an uncontended path (on small machines extra client+connection
  // thread pairs just measure the scheduler). Raise it for throughput.
  const int connections =
      std::max(1, static_cast<int>(args.get_int("connections", 1)));
  const double rate = args.get_double("rate", 0.0);
  const int repeats =
      std::max(1, static_cast<int>(args.get_int("repeats", 3)));
  const int max_k = std::max(1, static_cast<int>(args.get_int("max-k", 3)));
  const std::string algorithms_spec = args.get_string("algorithms", "pm");
  const std::string json_out = args.get_string("json-out", "");
  const int jobs = util::parse_jobs_flag(args);
  obs::apply_log_level_flag(args);
  for (const auto& unused : args.unused()) {
    obs::log().warn("unrecognized flag --" + unused);
  }
  util::install_shutdown_handler();

  // In-process stack unless an external --port was given.
  std::unique_ptr<svc::Engine> engine;
  std::unique_ptr<svc::Server> server;
  const sdwan::Network net = core::make_att_network();
  if (port == 0) {
    svc::EngineConfig engine_config;
    engine_config.jobs = jobs;
    engine = std::make_unique<svc::Engine>(net, engine_config);
    svc::ServerConfig server_config;
    server_config.port = 0;
    server_config.max_queue = 4 * connections + 16;
    server = std::make_unique<svc::Server>(*engine, server_config);
    server->start();
    port = server->port();
  }

  // Request set: every C(M, k) combination, k = 1..max_k, per algorithm.
  std::vector<std::string> lines;
  for (const std::string& algorithm :
       util::split(algorithms_spec, ',')) {
    for (int k = 1; k <= max_k && k < net.controller_count(); ++k) {
      for (const auto& scenario : sdwan::enumerate_failures(net, k)) {
        util::JsonValue req = util::JsonValue::object();
        req["verb"] = util::JsonValue("solve");
        util::JsonValue failed = util::JsonValue::array();
        for (const sdwan::ControllerId j : scenario.failed) {
          failed.push_back(util::JsonValue(j));
        }
        req["failed"] = std::move(failed);
        req["algorithm"] = util::JsonValue(algorithm);
        lines.push_back(req.to_string(0));
      }
    }
  }

  std::cout << "=== Service load: " << lines.size()
            << " distinct requests, " << connections
            << " connection(s), jobs=" << jobs << ", rate="
            << (rate > 0.0 ? util::format_double(rate, 0) + "/s"
                           : std::string("closed-loop"))
            << " ===\n";

  // Cold: each distinct request once (a fresh server misses on all).
  std::vector<std::size_t> cold_schedule(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) cold_schedule[i] = i;
  double cold_seconds = 0.0;
  const std::vector<Exchange> cold = run_phase(
      host, port, lines, cold_schedule, connections, rate, cold_seconds);

  // Warm: the same set `repeats` more times (all hits).
  std::vector<std::size_t> warm_schedule;
  warm_schedule.reserve(lines.size() * static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      warm_schedule.push_back(i);
    }
  }
  double warm_seconds = 0.0;
  std::vector<Exchange> warm;
  if (!util::shutdown_requested()) {
    warm = run_phase(host, port, lines, warm_schedule, connections, rate,
                     warm_seconds);
  }

  const PhaseStats cold_stats = summarize("cold", cold, cold_seconds);
  const PhaseStats warm_stats = summarize("warm", warm, warm_seconds);

  // Byte-identity: every warm result must equal the cold result of the
  // same request; every warm response must be a cache hit.
  bool payloads_identical = !warm.empty();
  std::size_t warm_hits = 0;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const Exchange& w = warm[i];
    const Exchange& c = cold[warm_schedule[i]];
    if (!w.ok || !c.ok || w.result != c.result) {
      payloads_identical = false;
    }
    if (w.cached) ++warm_hits;
  }

  util::TextTable t({"phase", "requests", "errors", "rps", "p50 ms",
                     "p90 ms", "p99 ms", "mean ms"});
  for (const PhaseStats* s : {&cold_stats, &warm_stats}) {
    t.add_row({s->name, std::to_string(s->requests),
               std::to_string(s->errors),
               util::format_double(s->throughput_rps, 1),
               util::format_double(s->p50_ms, 3),
               util::format_double(s->p90_ms, 3),
               util::format_double(s->p99_ms, 3),
               util::format_double(s->mean_ms, 3)});
  }
  t.print(std::cout);

  const double speedup_p50 =
      warm_stats.p50_ms > 0.0 ? cold_stats.p50_ms / warm_stats.p50_ms
                              : 0.0;
  const double speedup_mean =
      warm_stats.mean_ms > 0.0 ? cold_stats.mean_ms / warm_stats.mean_ms
                               : 0.0;
  std::cout << "\nwarm speedup: " << util::format_double(speedup_p50, 1)
            << "x p50, " << util::format_double(speedup_mean, 1)
            << "x mean; warm cache hits " << warm_hits << "/"
            << warm.size() << "; payloads "
            << (payloads_identical ? "byte-identical" : "DIFFER") << "\n";
  if (util::shutdown_requested()) {
    std::cout << "[interrupted — partial results flushed]\n";
  }

  if (!json_out.empty()) {
    util::JsonValue doc = util::JsonValue::object();
    doc["benchmark"] = util::JsonValue("pr5_service_load");
#ifdef PM_BUILD_TYPE
    doc["build_type"] = util::JsonValue(PM_BUILD_TYPE);
#endif
    doc["distinct_requests"] =
        util::JsonValue(static_cast<std::int64_t>(lines.size()));
    doc["connections"] = util::JsonValue(connections);
    doc["jobs"] = util::JsonValue(jobs);
    doc["rate_rps"] = util::JsonValue(rate);
    doc["repeats"] = util::JsonValue(repeats);
    doc["cold"] = phase_to_json(cold_stats);
    doc["warm"] = phase_to_json(warm_stats);
    doc["speedup_p50"] = util::JsonValue(speedup_p50);
    doc["speedup_mean"] = util::JsonValue(speedup_mean);
    doc["warm_hits"] =
        util::JsonValue(static_cast<std::int64_t>(warm_hits));
    doc["payloads_identical"] = util::JsonValue(payloads_identical);
    std::ofstream out(json_out);
    out << doc.to_string(2) << "\n";
    std::cout << "[json written to " << json_out << "]\n";
  }

  if (server) server->stop();
  const bool ok = payloads_identical && cold_stats.errors == 0 &&
                  warm_stats.errors == 0 && !util::shutdown_requested();
  return ok ? 0 : 1;
}
