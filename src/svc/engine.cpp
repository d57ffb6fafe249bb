#include "svc/engine.hpp"

#include <algorithm>

#include "core/metrics.hpp"
#include "core/naive.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/retroflow.hpp"
#include "core/serialize.hpp"

namespace pm::svc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string failed_set_key(const std::vector<sdwan::ControllerId>& failed) {
  std::string key;
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i > 0) key += ',';
    key += std::to_string(failed[i]);
  }
  return key;
}

core::RecoveryPlan run_algorithm(const SolveParams& params,
                                 const sdwan::FailureState& state) {
  if (params.algorithm == "pm") return core::run_pm(state);
  if (params.algorithm == "naive") return core::run_naive_nearest(state);
  if (params.algorithm == "retroflow") {
    core::RetroFlowOptions options;
    options.controller_candidates = params.retroflow_candidates;
    return core::run_retroflow(state, options);
  }
  if (params.algorithm == "pg") return core::run_pg(state);
  throw ProtocolError(kErrBadRequest,
                      "unknown algorithm '" + params.algorithm + "'");
}

}  // namespace

Engine::Engine(sdwan::Network network, EngineConfig config)
    : network_(std::move(network)),
      config_(config),
      cache_(config.cache_bytes, &metrics_),
      legacy_tables_(
          sdwan::compute_legacy_tables(network_.topology().graph())),
      diversity_cache_(network_.config().path_count),
      solves_(metrics_.counter("svc_solves_total",
                               "solve requests computed (cache misses)")),
      errors_(metrics_.counter("svc_errors_total",
                               "solve requests that returned an error")),
      deadline_expired_(
          metrics_.counter("svc_deadline_expired_total",
                           "requests whose deadline passed in the queue")),
      state_hits_(metrics_.counter(
          "svc_state_cache_hits_total",
          "failure states reused across overlapping requests")),
      state_misses_(metrics_.counter("svc_state_cache_misses_total",
                                     "failure states built from scratch")) {
  // Warm the resident diversity cache with every per-destination
  // distance vector and record the diameter for the health payload.
  const graph::Graph& g = network_.topology().graph();
  for (graph::NodeId dst = 0; dst < g.node_count(); ++dst) {
    for (const int hops : diversity_cache_.distances(g, dst)) {
      diameter_hops_ = std::max(diameter_hops_, hops);
    }
  }
}

std::vector<sdwan::ControllerId> Engine::canonical_failed(
    const std::vector<sdwan::ControllerId>& failed) const {
  std::vector<sdwan::ControllerId> out = failed;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  for (const sdwan::ControllerId j : out) {
    if (j < 0 || j >= network_.controller_count()) {
      throw ProtocolError(kErrBadRequest,
                          "controller id " + std::to_string(j) +
                              " out of range [0, " +
                              std::to_string(network_.controller_count()) +
                              ")");
    }
  }
  if (static_cast<int>(out.size()) >= network_.controller_count()) {
    throw ProtocolError(kErrBadRequest,
                        "failure set leaves no surviving controller");
  }
  return out;
}

std::shared_ptr<const sdwan::FailureState> Engine::state_for(
    const std::vector<sdwan::ControllerId>& failed) {
  const std::string key = failed_set_key(failed);
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    for (auto it = state_lru_.begin(); it != state_lru_.end(); ++it) {
      if (it->first == key) {
        state_lru_.splice(state_lru_.begin(), state_lru_, it);
        state_hits_.inc();
        return state_lru_.front().second;
      }
    }
  }
  // Build outside the lock — construction walks every flow and is the
  // expensive part overlapping requests want to share. Two threads may
  // race on the same key; both states are identical, last insert wins.
  state_misses_.inc();
  sdwan::FailureScenario scenario;
  scenario.failed = failed;
  auto state = std::make_shared<const sdwan::FailureState>(
      network_, std::move(scenario));
  const std::lock_guard<std::mutex> lock(state_mutex_);
  state_lru_.emplace_front(key, state);
  while (state_lru_.size() > config_.state_cache_entries) {
    state_lru_.pop_back();
  }
  return state;
}

SolveOutcome Engine::solve(const SolveJob& job) {
  const Clock::time_point start = Clock::now();
  SolveOutcome outcome;
  outcome.key = canonical_key(job.params);

  if (job.deadline && Clock::now() > *job.deadline) {
    deadline_expired_.inc();
    errors_.inc();
    outcome.error_code = kErrDeadlineExceeded;
    outcome.error_message = "deadline passed before dispatch";
    outcome.solve_ms = ms_since(start);
    return outcome;
  }

  if (auto cached = cache_.get(outcome.key)) {
    outcome.ok = true;
    outcome.cache_hit = true;
    outcome.payload = std::move(*cached);
    outcome.solve_ms = ms_since(start);
    return outcome;
  }

  try {
    const auto failed = canonical_failed(job.params.failed);
    const auto state = state_for(failed);

    core::RecoveryPlan plan = run_algorithm(job.params, *state);
    core::RecoveryMetrics metrics = core::evaluate_plan(*state, plan);
    // Zero the wall-clock fields: the payload must be a pure function of
    // the canonical request so cached and recomputed responses are
    // byte-identical. Timing is reported out-of-band in solve_ms.
    plan.solve_seconds = 0.0;
    metrics.solve_seconds = 0.0;

    outcome.payload = core::write_case_report(
        state->scenario().label(network_), plan, metrics);
    outcome.ok = true;
    cache_.put(outcome.key, outcome.payload);
    solves_.inc();
  } catch (const ProtocolError& e) {
    errors_.inc();
    outcome.error_code = e.code();
    outcome.error_message = e.what();
  } catch (const std::exception& e) {
    errors_.inc();
    outcome.error_code = kErrInternal;
    outcome.error_message = e.what();
  }
  outcome.solve_ms = ms_since(start);
  return outcome;
}

std::optional<SolveOutcome> Engine::try_cached(const SolveParams& params) {
  const Clock::time_point start = Clock::now();
  SolveOutcome outcome;
  outcome.key = canonical_key(params);
  auto cached = cache_.peek(outcome.key);
  if (!cached) return std::nullopt;
  outcome.ok = true;
  outcome.cache_hit = true;
  outcome.payload = std::move(*cached);
  outcome.solve_ms = ms_since(start);
  return outcome;
}

SolveOutcome Engine::solve(const SolveParams& params) {
  SolveJob job;
  job.params = params;
  if (params.deadline_ms > 0.0) {
    job.deadline = Clock::now() + std::chrono::duration_cast<
                                      Clock::duration>(
                                      std::chrono::duration<double,
                                                            std::milli>(
                                          params.deadline_ms));
  }
  return solve(job);
}

}  // namespace pm::svc
