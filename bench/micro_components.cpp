// Google-benchmark microbenches of the hot paths: graph algorithms on the
// ATT backbone, the programmability extraction, PM / the baselines, the
// FMSSM model build, the simplex on synthetic LPs and the discrete-event
// queue.
#include <benchmark/benchmark.h>

#include <random>

#include "core/fmssm.hpp"
#include "core/pg.hpp"
#include "core/pm_algorithm.hpp"
#include "core/retroflow.hpp"
#include "core/scenario.hpp"
#include "ctrl/messages.hpp"
#include "graph/path_count.hpp"
#include "graph/shortest_path.hpp"
#include "milp/simplex.hpp"
#include "sim/event_queue.hpp"
#include "topo/att.hpp"

namespace {

using namespace pm;

const sdwan::Network& att() {
  static const sdwan::Network net = core::make_att_network();
  return net;
}

const sdwan::FailureState& headline_state() {
  static const sdwan::FailureState state = [] {
    sdwan::FailureScenario sc;
    for (int j = 0; j < att().controller_count(); ++j) {
      const int loc = att().controller(j).location;
      if (loc == 13 || loc == 20) sc.failed.push_back(j);
    }
    return sdwan::FailureState(att(), sc);
  }();
  return state;
}

void BM_DijkstraAtt(benchmark::State& state) {
  const auto& g = att().topology().graph();
  for (auto _ : state) {
    for (int s = 0; s < g.node_count(); ++s) {
      benchmark::DoNotOptimize(graph::dijkstra(g, s));
    }
  }
}
BENCHMARK(BM_DijkstraAtt);

void BM_PathDiversityAtt(benchmark::State& state) {
  const auto& g = att().topology().graph();
  graph::PathCountOptions opts;
  opts.slack = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::int64_t acc = 0;
    for (int d = 0; d < g.node_count(); ++d) {
      acc += graph::path_diversity(g, 13, d, opts);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PathDiversityAtt)->Arg(1)->Arg(2)->Arg(3);

void BM_NetworkBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::make_att_network());
  }
}
BENCHMARK(BM_NetworkBuild);

void BM_FailureStateBuild(benchmark::State& state) {
  sdwan::FailureScenario sc{{3, 4}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sdwan::FailureState(att(), sc));
  }
}
BENCHMARK(BM_FailureStateBuild);

void BM_PmHeadlineCase(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_pm(headline_state()));
  }
}
BENCHMARK(BM_PmHeadlineCase);

void BM_RetroFlowHeadlineCase(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_retroflow(headline_state()));
  }
}
BENCHMARK(BM_RetroFlowHeadlineCase);

void BM_PgHeadlineCase(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_pg(headline_state()));
  }
}
BENCHMARK(BM_PgHeadlineCase);

void BM_FmssmModelBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_fmssm(headline_state()));
  }
}
BENCHMARK(BM_FmssmModelBuild);

void BM_SimplexRandomLp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> coeff(0.1, 5.0);
  milp::Model m;
  m.set_objective_sense(milp::Objective::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.add_continuous("x" + std::to_string(j), 0.0, 10.0, coeff(rng));
  }
  for (int i = 0; i < n / 2; ++i) {
    std::vector<milp::Term> terms;
    for (int j = 0; j < n; ++j)

      terms.push_back({j, coeff(rng)});
    m.add_constraint("c" + std::to_string(i), std::move(terms),
                     milp::Sense::kLe, 20.0 + coeff(rng));
  }
  for (auto _ : state) {
    const auto r = milp::solve_lp(m);
    if (r.status != milp::LpStatus::kOptimal) state.SkipWithError("LP!");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(20)->Arg(60)->Arg(120);

// 10k events per iteration on one queue; the capture is one reference,
// so this times the heap and the task slab.
void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    long long acc = 0;
    for (int i = 0; i < 10000; ++i) {
      q.schedule_at(static_cast<double>((i * 7919) % 10000),
                    [&acc] { ++acc; });
    }
    q.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

// The real shape of a control-plane delivery: each event captures a
// ctrl::Message by value next to the channel's bookkeeping (about 90
// bytes, held inline by sim::Task).
void BM_EventQueueMessageDelivery(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t acc = 0;
    for (int i = 0; i < 10000; ++i) {
      ctrl::Message m;
      m.from = 25;
      m.to = i % 25;
      ctrl::FlowMod body;
      body.entry = {10, {i % 25, (i + 1) % 25}, (i + 2) % 25};
      body.xid = static_cast<std::uint64_t>(i);
      m.body = body;
      m.seq = static_cast<std::uint64_t>(i) + 1;
      const double sent_at = 0.0;
      auto deliver = [&acc, target = m.to, sent_at, m = std::move(m)] {
        acc += m.seq + static_cast<std::uint64_t>(target) +
               static_cast<std::uint64_t>(sent_at);
      };
      static_assert(sim::Task::stores_inline<decltype(deliver)>());
      q.schedule_at(static_cast<double>((i * 7919) % 10000),
                    std::move(deliver));
    }
    q.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueMessageDelivery);

}  // namespace

BENCHMARK_MAIN();
