// The resident recovery engine behind the service.
//
// Every batch binary in this repo rebuilds the network model — all-pairs
// flows, OSPF tables, beta/p programmability — before answering a single
// "what if these controllers die" question. The Engine inverts that
// shape for online serving: it pays model construction once, keeps the
// sdwan::Network, the legacy (OSPF) routing tables and a
// graph::DiversityCache resident, and then answers a stream of solve
// requests over that state:
//
//   request --> canonical key --> PlanCache hit?  --> cached payload
//                               \-> FailureState LRU --> algorithm -->
//                                   deterministic payload --> cache fill
//
// Determinism: timing fields (solve_seconds) are zeroed before
// serialization, so a given canonical request always produces the same
// payload bytes — which is what lets a cache hit be byte-identical to a
// recompute, and what the CI smoke, test_svc and perfbench assert.
//
// Concurrency: solve() is thread-safe (the Network and every cached
// FailureState are immutable after construction; the plan/state caches
// lock internally). The server runs config().jobs worker threads, each
// calling solve() on one queued request at a time, so service
// throughput scales with --jobs like the offline sweeps do.
#pragma once

#include <chrono>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/diversity_cache.hpp"
#include "obs/metrics.hpp"
#include "sdwan/failure.hpp"
#include "sdwan/network.hpp"
#include "sdwan/ospf.hpp"
#include "svc/plan_cache.hpp"
#include "svc/protocol.hpp"

namespace pm::svc {

struct EngineConfig {
  /// Solver threads the server runs (values < 1 mean 1); each computes
  /// one queued request at a time.
  int jobs = 1;
  /// PlanCache byte budget.
  std::size_t cache_bytes = std::size_t{64} << 20;
  /// FailureState LRU depth — overlapping requests (same failure set,
  /// different algorithm) reuse the derived state instead of rebuilding
  /// offline sets, residual capacities and opportunity lists.
  std::size_t state_cache_entries = 16;
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

class Engine {
 public:
  explicit Engine(sdwan::Network network, EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const sdwan::Network& network() const { return network_; }
  const EngineConfig& config() const { return config_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  PlanCache& cache() { return cache_; }

  /// The resident legacy routing substrate (one table per switch).
  const std::vector<sdwan::LegacyRoutingTable>& legacy_tables() const {
    return legacy_tables_;
  }
  /// Topology diameter in hops, answered from the resident
  /// graph::DiversityCache (health-verb payload).
  int diameter_hops() const { return diameter_hops_; }

  /// Thread-safe. Checks the deadline, probes the plan cache, else
  /// computes: canonicalized failure set -> FailureState (LRU) ->
  /// algorithm -> deterministic payload -> cache fill.
  SolveOutcome solve(const SolveJob& job);

  /// Cache-only probe: returns the completed outcome when the canonical
  /// request is resident (cache_hit = true), nullopt otherwise. A miss
  /// is not counted — the caller falls back to solve(), which counts
  /// it. This is the server's fast path: hits are answered inline on
  /// the connection thread and never consume a queue slot, so admission
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

  std::shared_ptr<const sdwan::FailureState> state_for(
      const std::vector<sdwan::ControllerId>& failed);

  sdwan::Network network_;
  EngineConfig config_;
  obs::MetricsRegistry metrics_;
  PlanCache cache_;
  std::vector<sdwan::LegacyRoutingTable> legacy_tables_;
  graph::DiversityCache diversity_cache_;
  int diameter_hops_ = 0;

  std::mutex state_mutex_;
  /// MRU-first LRU of derived failure states, keyed by the canonical
  /// failed-set rendering ("3,4").
  std::list<std::pair<std::string,
                      std::shared_ptr<const sdwan::FailureState>>>
      state_lru_;

  obs::Counter& solves_;
  obs::Counter& errors_;
  obs::Counter& deadline_expired_;
  obs::Counter& state_hits_;
  obs::Counter& state_misses_;
};

}  // namespace pm::svc
