// The resident recovery engine behind the service.
//
// Every batch binary in this repo rebuilds the network model — all-pairs
// flows, OSPF tables, beta/p programmability — before answering a single
// "what if these controllers die" question. The Engine inverts that
// shape for online serving: it pays model construction once, keeps the
// sdwan::Network and a PlanCache resident, and then answers a stream of
// solve requests over that state:
//
//   request --> canonical key --> PlanCache hit?  --> cached payload
//                               \-> FailureState --> algorithm -->
//                                   deterministic payload --> cache fill
//
// A FailureState is gathered from the Network's per-switch opportunity
// index in time proportional to the offline switches' incidences, so
// every miss builds its own and nothing but plans is cached.
//
// Determinism: timing fields (solve_seconds) are zeroed before
// serialization, so a given canonical request always produces the same
// payload bytes — which is what lets a cache hit be byte-identical to a
// recompute, and what test_svc and perfbench's serve workloads assert.
//
// Concurrency: solve() is thread-safe (the Network is immutable after
// construction, each solve builds its own FailureState, and the plan
// cache locks internally). The server's connection threads call solve()
// on their own admitted misses, up to config().jobs at once, so service
// throughput scales with --jobs like the offline sweeps do.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sdwan/failure.hpp"
#include "sdwan/network.hpp"
#include "svc/plan_cache.hpp"
#include "svc/protocol.hpp"

namespace pm::svc {

struct EngineConfig {
  /// Solves the server computes at once (values < 1 mean 1), each on
  /// the connection thread that admitted it.
  int jobs = 1;
  /// PlanCache byte budget.
  std::size_t cache_bytes = std::size_t{64} << 20;
};

/// Outcome of one solve. On success `payload` holds the deterministic
/// case report ({"case","plan","metrics"}) as compact JSON; on failure
/// `error_code` is one of the wire error codes of protocol.hpp.
struct SolveOutcome {
  bool ok = false;
  std::string error_code;
  std::string error_message;
  bool cache_hit = false;
  std::string key;
  std::string payload;
  double solve_ms = 0.0;  ///< Wall clock spent inside the engine.
};

/// A solve with its scheduling deadline (absolute; nullopt = none).
/// The server stamps the deadline at admission so queueing time counts
/// against it.
struct SolveJob {
  SolveParams params;
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// The absolute deadline `budget_ms` from now. A budget that is not
/// positive, or too large for the clock to represent, sets none.
std::optional<std::chrono::steady_clock::time_point> deadline_after(
    double budget_ms);

class Engine {
 public:
  explicit Engine(sdwan::Network network, EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const sdwan::Network& network() const { return network_; }
  const EngineConfig& config() const { return config_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  PlanCache& cache() { return cache_; }

  /// Topology diameter in hops, computed at construction (health-verb
  /// payload).
  int diameter_hops() const { return diameter_hops_; }

  /// Thread-safe. Checks the deadline, probes the plan cache, else
  /// computes: canonicalized failure set -> FailureState ->
  /// algorithm -> deterministic payload -> cache fill.
  SolveOutcome solve(const SolveJob& job);

  /// Cache-only probe: returns the completed outcome when the canonical
  /// request is resident (cache_hit = true), nullopt otherwise. A miss
  /// is not counted — the caller falls back to solve(), which counts
  /// it. This is the server's fast path: hits are answered before
  /// admission and never consume a queue slot, so admission
  /// control and deadlines govern only requests that actually compute.
  /// Invalid failure sets simply miss (they are never cached) and get
  /// their bad_request verdict from the fallback solve().
  std::optional<SolveOutcome> try_cached(const SolveParams& params);

  /// Convenience: derives the absolute deadline from params.deadline_ms
  /// relative to now (the in-process path; the server stamps admission
  /// time itself).
  SolveOutcome solve(const SolveParams& params);

 private:
  /// Sorted/deduped failure set, validated against the network. Throws
  /// ProtocolError(bad_request) on out-of-range ids or when no
  /// controller survives.
  std::vector<sdwan::ControllerId> canonical_failed(
      const std::vector<sdwan::ControllerId>& failed) const;

  sdwan::Network network_;
  EngineConfig config_;
  obs::MetricsRegistry metrics_;
  PlanCache cache_;
  int diameter_hops_ = 0;

  obs::Counter& solves_;
  obs::Counter& errors_;
  obs::Counter& deadline_expired_;
};

}  // namespace pm::svc
