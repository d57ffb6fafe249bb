// The two service workloads. Both run svc::Engine behind svc::Server on
// an ephemeral 127.0.0.1 port in this process and drive it through
// svc::Client connections, closed loop: each connection stands for a
// controller that blocks until its plan arrives.
//
//   serve_hits_att          every request is a PlanCache hit, so the
//                           work is svc transport, parsing and lookup;
//   serve_misses_waxman150  every request misses a cold cache, so the
//                           work is FailureState, planners, evaluation
//                           and serialization at 150 nodes.
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "core/naive.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/retroflow.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"
#include "graph/diversity_cache.hpp"
#include "sdwan/failure.hpp"
#include "sdwan/ospf.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "topo/generators.hpp"
#include "topo/placement.hpp"
#include "util/json.hpp"

namespace pmbench {

namespace {

constexpr std::size_t kConnections = 2;
constexpr int kEngineJobs = 2;
constexpr int kSetupReps = 5;
// Hits complete tens of thousands of ops per second: their figures are
// medians over slices of about one second, each on fresh connections.
constexpr double kHitSliceSeconds = 1.0;
const std::vector<std::string> kAlgorithms = {"pm", "retroflow", "pg",
                                              "naive"};

/// The service in this process: engine plus server on a loopback port.
struct Stack {
  std::unique_ptr<pm::svc::Engine> engine;
  std::unique_ptr<pm::svc::Server> server;

  void stop() {
    if (server) server->stop();
    server.reset();
    engine.reset();
  }
};

void start_stack(Stack& stack, pm::sdwan::Network net) {
  pm::svc::EngineConfig engine_config;
  engine_config.jobs = kEngineJobs;
  {
    ScopedSpan span("svc.engine_build", "svc");
    stack.engine =
        std::make_unique<pm::svc::Engine>(std::move(net), engine_config);
  }
  pm::svc::ServerConfig server_config;
  server_config.max_queue = static_cast<int>(4 * kConnections + 16);
  stack.server = std::make_unique<pm::svc::Server>(*stack.engine,
                                                   server_config);
  stack.server->start();
}

std::string solve_line(const std::vector<pm::sdwan::ControllerId>& failed,
                       const std::string& algorithm) {
  pm::util::JsonValue req = pm::util::JsonValue::object();
  req["verb"] = pm::util::JsonValue("solve");
  pm::util::JsonValue list = pm::util::JsonValue::array();
  for (const auto j : failed) list.push_back(pm::util::JsonValue(j));
  req["failed"] = std::move(list);
  req["algorithm"] = pm::util::JsonValue(algorithm);
  return req.to_string(0);
}

/// Flags and spliced result bytes of one solve response line, read
/// without a JSON parse (the server splices the payload verbatim after
/// the head object; see svc/server.cpp).
struct ResponseView {
  bool ok = false;
  bool cached = false;
  double solve_ms = 0.0;
  std::string_view result;
};

bool view_response(const std::string& line, ResponseView& view) {
  static constexpr std::string_view kResult = ",\"result\":";
  const std::size_t at = line.find(kResult);
  if (at == std::string::npos || line.empty() || line.back() != '}') {
    return false;
  }
  const std::string_view head(line.data(), at);
  view.ok = head.find("\"ok\":true") != std::string_view::npos;
  view.cached = head.find("\"cached\":true") != std::string_view::npos;
  const std::size_t ms = head.find("\"solve_ms\":");
  view.solve_ms = ms == std::string_view::npos
                      ? 0.0
                      : std::strtod(line.c_str() + ms + 11, nullptr);
  const std::size_t from = at + kResult.size();
  view.result = std::string_view(line).substr(from, line.size() - from - 1);
  return true;
}

/// metrics.total_programmability of a case report payload.
double total_programmability(std::string_view payload) {
  static constexpr std::string_view kKey = "\"total_programmability\":";
  const std::size_t at = payload.find(kKey);
  if (at == std::string_view::npos) return 0.0;
  return std::strtod(std::string(payload.substr(at + kKey.size(), 32)).c_str(),
                     nullptr);
}

/// Every failure set with 1..max_k failed controllers.
std::vector<pm::sdwan::FailureScenario> failure_sets(
    const pm::sdwan::Network& net, int max_k) {
  std::vector<pm::sdwan::FailureScenario> out;
  for (int k = 1; k <= max_k && k < net.controller_count(); ++k) {
    for (auto& s : pm::sdwan::enumerate_failures(net, k)) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

/// The in-process recomputation of one request, mirroring the Engine.
std::string recompute_payload(const pm::sdwan::Network& net,
                              const pm::sdwan::FailureScenario& scenario,
                              const std::string& algorithm) {
  std::unique_ptr<pm::sdwan::FailureState> state;
  {
    ScopedSpan span("sdwan.failure_state", "sdwan");
    state = std::make_unique<pm::sdwan::FailureState>(net, scenario);
  }
  pm::core::RecoveryPlan plan;
  if (algorithm == "pm") {
    ScopedSpan span("core.plan.pm", "core");
    plan = pm::core::run_pm(*state);
  } else if (algorithm == "retroflow") {
    ScopedSpan span("core.plan.retroflow", "core");
    plan = pm::core::run_retroflow(*state);
  } else if (algorithm == "pg") {
    ScopedSpan span("core.plan.pg", "core");
    plan = pm::core::run_pg(*state);
  } else {
    ScopedSpan span("core.plan.naive", "core");
    plan = pm::core::run_naive_nearest(*state);
  }
  pm::core::RecoveryMetrics metrics;
  {
    ScopedSpan span("core.evaluate", "core");
    metrics = pm::core::evaluate_plan(*state, plan);
  }
  plan.solve_seconds = 0.0;
  metrics.solve_seconds = 0.0;
  ScopedSpan span("core.serialize", "core");
  return pm::core::case_report_to_json(scenario.label(net), plan, metrics)
      .to_string(0);
}

std::atomic<std::uint64_t> g_next_op{0};

}  // namespace

// ---------------------------------------------------------------------------
// serve_hits_att

Result run_serve_hits(const Options& options) {
  // The whole service runs on the vCPU this thread is on: every thread
  // made from here on inherits the mask. A hit is a few microseconds of
  // work between blocking reads, so each request wakes a sleeping thread
  // twice. Across vCPUs each wake-up goes through the hypervisor, and on
  // the shared reference host that made runs of the same code read 16k or
  // 48k ops/s and a p99 of 0.1 or 1.9 ms; on one vCPU a wake-up is a
  // local context switch, and three runs read 42k-46k ops/s.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  const int cpu = sched_getcpu();
  if (cpu < 0) throw std::runtime_error("sched_getcpu failed");
  CPU_SET(cpu, &one_cpu);
  if (sched_setaffinity(0, sizeof one_cpu, &one_cpu) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  // 41 failure sets x 4 algorithms = 164 keys, all resident.
  constexpr int kMaxK = 3;
  struct Key {
    pm::sdwan::FailureScenario scenario;
    std::string algorithm;
    std::string line;
  };
  struct Request {
    std::string line;
    std::size_t key = 0;  ///< Index into `keys`.
  };

  Stack stack;
  std::vector<Key> keys;
  std::vector<std::string> expected;  ///< Result bytes per key.
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    keys.clear();
    expected.clear();
    pm::sdwan::Network net = pm::core::make_att_network();
    for (const auto& scenario : failure_sets(net, kMaxK)) {
      for (const std::string& algorithm : kAlgorithms) {
        keys.push_back({scenario, algorithm,
                        solve_line(scenario.failed, algorithm)});
      }
    }
    start_stack(stack, std::move(net));
    // Pre-warm: one miss per key fills the PlanCache; its bytes are what
    // every later hit must reproduce.
    pm::svc::Client client("127.0.0.1", stack.server->port());
    for (const Key& key : keys) {
      const std::string response = client.roundtrip_line(key.line);
      ResponseView view;
      if (!view_response(response, view) || !view.ok || view.cached) {
        throw std::runtime_error("pre-warm failed for " + key.line + ": " +
                                 response.substr(0, 200));
      }
      expected.emplace_back(view.result);
    }
  }, [&] { stack.stop(); });

  // Seeded request mix per connection: k = 1/2/3 with weights .6/.3/.1,
  // pm 70% and the other three 10% each, and about 10% of the requests
  // carrying a permuted or duplicated failed list (same canonical key).
  std::vector<std::vector<std::size_t>> keys_by_k(kMaxK + 1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys_by_k[keys[i].scenario.failed.size()].push_back(i);
  }
  constexpr std::size_t kRequestsPerConnection = 8192;
  std::vector<std::vector<Request>> requests(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::mt19937_64 rng(options.seed * 1000003ULL + c);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    for (std::size_t r = 0; r < kRequestsPerConnection; ++r) {
      const double u = uni(rng);
      const int k = u < 0.6 ? 1 : (u < 0.9 ? 2 : 3);
      const double a = uni(rng);
      const std::string algorithm =
          a < 0.7 ? "pm" : kAlgorithms[1 + static_cast<std::size_t>(
                                               (a - 0.7) / 0.1) % 3];
      // Pick a failure set of size k, then the key of that algorithm.
      const auto& pool = keys_by_k[static_cast<std::size_t>(k)];
      std::size_t key = pool[rng() % pool.size()];
      key = key - key % kAlgorithms.size();
      while (keys[key].algorithm != algorithm) ++key;
      std::vector<pm::sdwan::ControllerId> failed =
          keys[key].scenario.failed;
      if (uni(rng) < 0.1) {
        if (failed.size() >= 2 && rng() % 2 == 0) {
          std::reverse(failed.begin(), failed.end());
        } else {
          failed.insert(failed.begin() + static_cast<long>(
                                             rng() % (failed.size() + 1)),
                        failed[rng() % failed.size()]);
        }
      }
      requests[c].push_back(
          {solve_line(failed, algorithm), key});
    }
  }

  pm::svc::Engine& engine = *stack.engine;
  const int port = stack.server->port();
  std::vector<double> overhead_us;  // Traced window only.

  std::vector<std::size_t> cursor(kConnections, 0);
  std::uint64_t ok_ops = 0;
  double ok_bytes = 0.0;
  auto window_fn = [&](double seconds) -> Window {
    Window window;
    const bool traced = Tracer::instance().enabled();
    const Clock::time_point start = Clock::now();
    const int slices =
        std::max(1, static_cast<int>(std::lround(seconds / kHitSliceSeconds)));
    for (int slice = 1; slice <= slices; ++slice) {
      // Each slice runs on fresh connections, so on fresh server threads,
      // and the slices span thread placements on the host.
      const Clock::time_point slice_start = Clock::now();
      const Clock::time_point deadline =
          after_seconds(start, slice * seconds / slices);
      std::vector<Window> parts(kConnections);
      std::vector<std::vector<double>> overhead(kConnections);
      std::vector<double> bytes(kConnections, 0.0);
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
          Window& w = parts[c];
          w.slices.emplace_back();
          const auto& mine = requests[c];
          std::size_t& i = cursor[c];
          try {
            pm::svc::Client client("127.0.0.1", port);
            for (; Clock::now() < deadline; ++i) {
              const Request& rq = mine[i % mine.size()];
              ScopedSpan op("serve.op", "bench", ++g_next_op);
              if (traced) {
                // In-process replay of the server's per-request steps,
                // timed where they run.
                pm::svc::Request parsed;
                {
                  ScopedSpan s("svc.protocol.parse", "svc");
                  parsed = pm::svc::parse_request(rq.line);
                }
                std::string key;
                {
                  ScopedSpan s("svc.protocol.canonical_key", "svc");
                  key = pm::svc::canonical_key(parsed.solve);
                }
                ScopedSpan s("svc.plan_cache.lookup", "svc");
                (void)engine.cache().peek(key);
              }
              ++w.attempted;
              std::string response;
              const Clock::time_point t0 = Clock::now();
              {
                ScopedSpan s("svc.client.roundtrip", "svc");
                response = client.roundtrip_line(rq.line);
              }
              const double latency = ms_between(t0, Clock::now());
              ScopedSpan check("bench.check", "bench");
              ResponseView view;
              if (!view_response(response, view) || !view.ok ||
                  !view.cached) {
                w.fail("not an ok cached response: " +
                       response.substr(0, 160));
              } else if (view.result != expected[rq.key]) {
                w.fail("result differs from the pre-warm bytes for " +
                       keys[rq.key].line);
              } else {
                w.slices.back().latencies.add(latency);
                bytes[c] += static_cast<double>(view.result.size());
                if (traced) overhead[c].push_back((latency - view.solve_ms) * 1e3);
              }
            }
          } catch (const std::exception& e) {
            ++w.attempted;
            w.fail(std::string("connection failed: ") + e.what());
          }
        });
      }
      for (auto& t : threads) t.join();
      window.slices.emplace_back();
      for (std::size_t c = 0; c < kConnections; ++c) {
        ok_ops += parts[c].attempted - parts[c].failed;
        window.absorb(std::move(parts[c]));
        ok_bytes += bytes[c];
        overhead_us.insert(overhead_us.end(), overhead[c].begin(),
                           overhead[c].end());
      }
      window.slices.back().seconds = seconds_since(slice_start);
    }
    window.seconds = seconds_since(start);
    return window;
  };

  Result result;
  if (!options.trace) {
    const Window w = measure(options.seconds, window_fn, result);
    double programmability = 0.0;
    for (const std::string& payload : expected) {
      programmability += total_programmability(payload);
    }
    fill_end_to_end(w, setup_s, programmability, result);
  } else {
    const std::uint64_t hits0 = engine.cache().hits();
    const std::uint64_t misses0 = engine.cache().misses();
    run_traced_pair(options.seconds, window_fn, result);
    const TraceSummary summary = summarize(Tracer::instance().snapshot());
    auto& m = result.per_layer;
    m["svc.protocol.parse_us"] = median_us(summary, "svc.protocol.parse");
    m["svc.protocol.canonical_key_us"] =
        median_us(summary, "svc.protocol.canonical_key");
    m["svc.plan_cache.lookup_us"] = median_us(summary, "svc.plan_cache.lookup");
    m["svc.server.overhead_us"] = quantile(overhead_us, 0.5);
    const double hits = static_cast<double>(engine.cache().hits() - hits0);
    const double misses =
        static_cast<double>(engine.cache().misses() - misses0);
    m["svc.plan_cache.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    m["svc.payload_bytes"] =
        ok_bytes / static_cast<double>(std::max<std::uint64_t>(1, ok_ops));
    m["svc.plan_cache.evictions"] =
        static_cast<double>(engine.cache().evictions());
  }
  stack.stop();
  return result;
}

// ---------------------------------------------------------------------------
// serve_misses_waxman150

Result run_serve_misses(const Options& options) {
  constexpr int kNodes = 150;
  constexpr int kControllers = 12;
  // 78 failure sets x 4 algorithms = 312 distinct requests per pass. With
  // k <= 3 (1,192 requests) one pass takes about 27 s at two jobs on a
  // 4-core x86 host, longer than a run may last.
  constexpr int kMaxK = 2;
  // The topology is one fixed draw (the seed bench/scalability uses), so
  // the figures measure the code rather than the luck of the Waxman draw;
  // the workload seed orders the requests and picks the checked sample.
  constexpr std::uint64_t kTopologySeed = 1;

  Tracer::instance().set_enabled(options.trace);
  Stack stack;
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    pm::topo::Topology topology;
    {
      ScopedSpan span("topo.generate", "topo");
      topology = pm::topo::waxman(kNodes, 0.5, 0.25, kTopologySeed);
    }
    pm::topo::Domains domains;
    {
      ScopedSpan span("topo.placement", "topo");
      domains = pm::topo::k_center_domains(topology, kControllers);
    }
    // Capacity at 1.15x the peak normal load, as in bench/scalability:
    // build once with unbounded capacity to measure the loads.
    pm::sdwan::NetworkConfig config;
    config.controller_capacity = 1e9;
    double max_load = 0.0;
    {
      ScopedSpan span("sdwan.network_build", "sdwan");
      const pm::sdwan::Network probe(topology, domains, config);
      for (int j = 0; j < probe.controller_count(); ++j) {
        max_load = std::max(max_load, probe.normal_load(j));
      }
    }
    config.controller_capacity = 1.15 * max_load;
    std::unique_ptr<pm::sdwan::Network> net;
    {
      ScopedSpan span("sdwan.network_build", "sdwan");
      net = std::make_unique<pm::sdwan::Network>(std::move(topology),
                                                 std::move(domains), config);
    }
    if (Tracer::instance().enabled()) {
      // The two resident structures the Engine builds, timed by
      // building them once more here.
      const pm::graph::Graph& g = net->topology().graph();
      {
        ScopedSpan span("sdwan.legacy_tables", "sdwan");
        (void)pm::sdwan::compute_legacy_tables(g);
      }
      ScopedSpan span("graph.diversity_all_pairs", "graph");
      pm::graph::DiversityCache cache(net->config().path_count);
      for (pm::graph::NodeId dst = 0; dst < g.node_count(); ++dst) {
        (void)cache.distances(g, dst);
      }
    }
    start_stack(stack, std::move(*net));
  }, [&] { stack.stop(); });
  Tracer::instance().set_enabled(false);

  pm::svc::Engine& engine = *stack.engine;
  const pm::sdwan::Network& net = engine.network();
  const int port = stack.server->port();

  struct Line {
    pm::sdwan::FailureScenario scenario;
    std::string algorithm;
    std::string text;
  };
  std::vector<Line> lines;
  for (const auto& scenario : failure_sets(net, kMaxK)) {
    for (const std::string& algorithm : kAlgorithms) {
      lines.push_back({scenario, algorithm,
                       solve_line(scenario.failed, algorithm)});
    }
  }

  // Per line: hash of its first result, so every later pass must return
  // the same bytes, and the plan's total programmability.
  std::vector<std::size_t> result_hash(lines.size(), 0);
  std::vector<double> programmability(lines.size(), -1.0);
  // Result bytes of the sampled requests, recomputed after the window.
  struct Sample {
    std::size_t line;
    std::string result;
  };
  std::vector<Sample> samples;
  // Traced, the sample is also what times the inner layers.
  const std::size_t per_algorithm_sample = options.trace ? 6 : 2;
  std::vector<double> wait_ms;  // Traced window only.
  std::vector<double> bytes_seen;
  std::uint64_t pass_counter = 0;

  auto window_fn = [&](double seconds) -> Window {
    Window total;
    const bool traced = Tracer::instance().enabled();
    const Clock::time_point start = Clock::now();
    do {
      // One pass, one slice: every distinct request once, in seeded
      // shuffled order, against a cold plan cache.
      const Clock::time_point pass_start = Clock::now();
      engine.cache().clear();
      std::vector<std::size_t> order(lines.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::mt19937_64 rng(options.seed * 7919ULL + ++pass_counter);
      std::shuffle(order.begin(), order.end(), rng);
      std::vector<char> sampled(lines.size(), 0);
      std::map<std::string, std::size_t> taken;
      for (const std::size_t i : order) {
        if (taken[lines[i].algorithm]++ < per_algorithm_sample) sampled[i] = 1;
      }

      std::atomic<std::size_t> next{0};
      std::vector<Window> per(kConnections);
      std::vector<std::vector<double>> waits(kConnections);
      std::vector<std::vector<Sample>> picked(kConnections);
      std::vector<double> bytes(kConnections, 0.0);
      std::mutex first_mutex;
      std::vector<std::thread> threads;
      for (std::size_t cu = 0; cu < kConnections; ++cu) {
        threads.emplace_back([&, cu] {
          Window& w = per[cu];
          w.slices.emplace_back();
          try {
            pm::svc::Client client("127.0.0.1", port);
            for (std::size_t n = next++; n < order.size(); n = next++) {
              const std::size_t i = order[n];
              ScopedSpan op("serve.op", "bench", ++g_next_op);
              ++w.attempted;
              std::string response;
              const Clock::time_point t0 = Clock::now();
              {
                ScopedSpan s("svc.client.roundtrip", "svc");
                response = client.roundtrip_line(lines[i].text);
              }
              const double latency = ms_between(t0, Clock::now());
              ScopedSpan check("bench.check", "bench");
              ResponseView view;
              if (!view_response(response, view) || !view.ok ||
                  view.cached) {
                w.fail("not an ok uncached response: " +
                       response.substr(0, 160));
                continue;
              }
              const std::size_t h = std::hash<std::string_view>{}(view.result);
              {
                const std::lock_guard<std::mutex> lock(first_mutex);
                if (result_hash[i] == 0) {
                  result_hash[i] = h;
                  programmability[i] = total_programmability(view.result);
                } else if (result_hash[i] != h) {
                  w.fail("result changed between passes for " +
                         lines[i].text);
                  continue;
                }
              }
              w.slices.back().latencies.add(latency);
              bytes[cu] += static_cast<double>(view.result.size());
              if (traced) waits[cu].push_back(latency - view.solve_ms);
              if (sampled[i]) picked[cu].push_back({i, std::string(view.result)});
            }
          } catch (const std::exception& e) {
            ++w.attempted;
            w.fail(std::string("connection failed: ") + e.what());
          }
        });
      }
      for (auto& t : threads) t.join();
      double sum_bytes = 0.0;
      std::uint64_t ok = 0;
      total.slices.emplace_back();
      for (std::size_t cu = 0; cu < kConnections; ++cu) {
        ok += per[cu].attempted - per[cu].failed;
        total.absorb(std::move(per[cu]));
        sum_bytes += bytes[cu];
        wait_ms.insert(wait_ms.end(), waits[cu].begin(), waits[cu].end());
        for (auto& s : picked[cu]) samples.push_back(std::move(s));
      }
      bytes_seen.push_back(sum_bytes /
                           static_cast<double>(std::max<std::uint64_t>(1, ok)));
      total.slices.back().seconds = seconds_since(pass_start);
    } while (seconds_since(start) < seconds);
    total.seconds = seconds_since(start);
    return total;
  };

  // Cache and FailureState-LRU counters, read before and after the run.
  auto counters = [&] {
    const auto& m = engine.metrics();
    return std::array<double, 4>{
        static_cast<double>(engine.cache().hits()),
        static_cast<double>(engine.cache().misses()),
        static_cast<double>(m.counter_value("svc_state_cache_hits_total")),
        static_cast<double>(m.counter_value("svc_state_cache_misses_total"))};
  };
  const std::array<double, 4> before = counters();
  Result result;
  const Window measured =
      options.trace ? run_traced_pair(options.seconds, window_fn, result)
                    : measure(options.seconds, window_fn, result);

  // Outside the timed window: recompute the sample in-process with core::
  // and compare byte for byte (traced, this also times the inner layers).
  Tracer::instance().set_enabled(options.trace);
  for (const Sample& s : samples) {
    const Line& line = lines[s.line];
    ScopedSpan op("bench.recompute", "bench", ++g_next_op);
    if (recompute_payload(net, line.scenario, line.algorithm) != s.result) {
      result.fail("recomputed payload differs for " + line.text);
    }
  }
  Tracer::instance().set_enabled(false);
  double programmability_total = 0.0;
  for (const double p : programmability) {
    if (p > 0.0) programmability_total += p;
  }

  if (!options.trace) {
    fill_end_to_end(measured, setup_s, programmability_total, result);
  } else {
    const TraceSummary all = summarize(Tracer::instance().snapshot());
    const std::array<double, 4> after = counters();
    auto ratio = [&](std::size_t hit, std::size_t miss) {
      const double h = after[hit] - before[hit];
      const double n = h + after[miss] - before[miss];
      return n > 0.0 ? h / n : 0.0;
    };
    auto& m = result.per_layer;
    m["svc.plan_cache.hit_ratio"] = ratio(0, 1);
    m["svc.engine.state_hit_ratio"] = ratio(2, 3);
    m["svc.server.wait_ms"] = quantile(wait_ms, 0.5);
    m["svc.payload_bytes"] = mean(bytes_seen);
    m["svc.plan_cache.evictions"] =
        static_cast<double>(engine.cache().evictions());
    m["sdwan.failure_state_us"] = median_us(all, "sdwan.failure_state");
    for (const std::string& algorithm : kAlgorithms) {
      m["core.plan_us." + algorithm] = median_us(all, "core.plan." + algorithm);
    }
    m["core.evaluate_us"] = median_us(all, "core.evaluate");
    m["core.serialize_us"] = median_us(all, "core.serialize");
    m["topo.generate_ms"] = median_us(all, "topo.generate") / 1e3;
    m["sdwan.network_build_ms"] = median_us(all, "sdwan.network_build") / 1e3;
    m["sdwan.legacy_tables_ms"] = median_us(all, "sdwan.legacy_tables") / 1e3;
    m["graph.diversity_all_pairs_ms"] =
        median_us(all, "graph.diversity_all_pairs") / 1e3;
  }
  stack.stop();
  return result;
}

}  // namespace pmbench
