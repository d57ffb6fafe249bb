#include "svc/engine.hpp"

#include <algorithm>
#include <limits>

#include "core/metrics.hpp"
#include "core/naive.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/retroflow.hpp"
#include "core/serialize.hpp"
#include "graph/graph.hpp"

namespace pm::svc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
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
      cache_(config.cache_bytes, metrics_),
      solves_(metrics_.counter("svc_solves_total",
                               "solve requests computed (cache misses)")),
      errors_(metrics_.counter("svc_errors_total",
                               "solve requests that returned an error")),
      deadline_expired_(
          metrics_.counter("svc_deadline_expired_total",
                           "requests whose deadline passed in the queue")) {
  // The diameter, for the health payload.
  const graph::Graph& g = network_.topology().graph();
  for (graph::NodeId dst = 0; dst < g.node_count(); ++dst) {
    for (const int hops : graph::hop_distances(g, dst)) {
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
    // A state costs time in the offline switches' opportunities (the
    // network's per-switch index), so every miss builds its own.
    const sdwan::FailureState state(
        network_, {canonical_failed(job.params.failed)});

    core::RecoveryPlan plan = run_algorithm(job.params, state);
    core::RecoveryMetrics metrics = core::evaluate_plan(state, plan);
    // Zero the wall-clock fields: the payload must be a pure function of
    // the canonical request so cached and recomputed responses are
    // byte-identical. Timing is reported out-of-band in solve_ms.
    plan.solve_seconds = 0.0;
    metrics.solve_seconds = 0.0;

    outcome.payload = core::write_case_report(
        state.scenario().label(network_), plan, metrics);
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

std::optional<Clock::time_point> deadline_after(double budget_ms) {
  // Compared as double before the cast: a tick count past the clock's
  // range would overflow (undefined, and on x86 a deadline in the past).
  const std::chrono::duration<double, Clock::period> budget =
      std::chrono::duration<double, std::milli>(budget_ms);
  if (!(budget.count() > 0.0) ||
      budget.count() >=
          static_cast<double>(std::numeric_limits<Clock::rep>::max())) {
    return std::nullopt;
  }
  const Clock::duration ticks =
      std::chrono::duration_cast<Clock::duration>(budget);
  const Clock::time_point now = Clock::now();
  if (ticks > Clock::time_point::max() - now) return std::nullopt;
  return now + ticks;
}

SolveOutcome Engine::solve(const SolveParams& params) {
  return solve(SolveJob{params, deadline_after(params.deadline_ms)});
}

}  // namespace pm::svc
