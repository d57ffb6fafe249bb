#include "core/reroute.hpp"

#include <algorithm>
#include <set>

#include "graph/shortest_path.hpp"

namespace pm::core {

namespace {
using sdwan::FlowId;
using sdwan::LinkId;
using sdwan::SwitchId;
}  // namespace

std::vector<SwitchId> reroutable_switches(const sdwan::FailureState& state,
                                          const RecoveryPlan& plan,
                                          FlowId flow) {
  const sdwan::Network& net = state.network();
  std::vector<SwitchId> out;
  const auto& f = net.flow(flow);
  for (SwitchId s : f.path) {
    if (s == f.dst) continue;
    if (net.diversity(flow, s) < 2) continue;  // no real choice there
    if (state.is_offline_switch(s)) {
      if (plan.has_assignment(s, flow)) out.push_back(s);
    } else {
      out.push_back(s);  // its domain controller is alive
    }
  }
  return out;
}

std::vector<std::vector<SwitchId>> candidate_paths(const sdwan::Network& net,
                                                   FlowId flow,
                                                   SwitchId at) {
  const auto& f = net.flow(flow);
  const auto it = std::find(f.path.begin(), f.path.end(), at);
  if (it == f.path.end() || at == f.dst) return {};
  const std::vector<SwitchId> prefix(f.path.begin(), it + 1);
  std::set<SwitchId> seen(prefix.begin(), prefix.end());

  std::vector<std::vector<SwitchId>> out;
  for (const auto& arc : net.topology().graph().neighbors(at)) {
    // Next hop + OSPF tail (the deterministic shortest path).
    const auto tail = graph::shortest_path(net.topology().graph(), arc.to,
                                           f.dst);
    if (tail.empty()) continue;
    // Loop-free against the prefix and within itself (shortest paths are
    // simple; just check the prefix).
    bool clean = true;
    for (SwitchId s : tail) {
      if (seen.contains(s)) {
        clean = false;
        break;
      }
    }
    if (!clean) continue;
    std::vector<SwitchId> path = prefix;
    path.insert(path.end(), tail.begin(), tail.end());
    if (path != f.path) out.push_back(std::move(path));
  }
  return out;
}

RerouteResult minimize_congestion(const sdwan::FailureState& state,
                                  const RecoveryPlan& plan,
                                  const sdwan::TrafficMatrix& tm,
                                  const RerouteOptions& options) {
  const sdwan::Network& net = state.network();
  RerouteResult result;

  auto loads = sdwan::compute_link_loads(net, tm,
                                         options.link_capacity_mbps);
  result.initial_mlu = loads.max_utilization;

  // Current path of each flow (default unless moved).
  std::map<FlowId, std::vector<SwitchId>> current;

  auto path_of = [&](FlowId l) -> const std::vector<SwitchId>& {
    const auto it = current.find(l);
    return it == current.end() ? net.flow(l).path : it->second;
  };

  auto add_path = [&](const std::vector<SwitchId>& path, double rate,
                      std::map<LinkId, double>& load) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      load.at(sdwan::make_link(path[i - 1], path[i])) += rate;
    }
  };

  // Lexicographic congestion score: primary = MLU, secondary = mean of
  // squared utilizations. The secondary term lets the greedy keep making
  // progress across MLU plateaus (several links tied at the top), which a
  // plain max-only objective stalls on.
  struct Score {
    double mlu = 0.0;
    double sum_sq = 0.0;
    bool better_than(const Score& o, double min_gain) const {
      if (mlu < o.mlu - min_gain) return true;
      if (mlu > o.mlu + min_gain) return false;
      return sum_sq < o.sum_sq - 1e-12;
    }
  };
  auto score_of = [&](const std::map<LinkId, double>& load) {
    Score s;
    for (const auto& [link, l] : load) {
      (void)link;
      const double u = l / options.link_capacity_mbps;
      s.mlu = std::max(s.mlu, u);
      s.sum_sq += u * u;
    }
    return s;
  };

  // Precompute reroutable switches per flow once (plan is fixed).
  std::map<FlowId, std::vector<SwitchId>> reroute_points;
  for (const auto& f : net.flows()) {
    if (tm.of(f.id) <= 0.0) continue;
    auto pts = reroutable_switches(state, plan, f.id);
    if (!pts.empty()) reroute_points[f.id] = std::move(pts);
  }

  Score score = score_of(loads.load_mbps);
  for (int move = 0; move < options.max_moves; ++move) {
    // Find the busiest link.
    LinkId busiest{-1, -1};
    double top = 0.0;
    for (const auto& [link, l] : loads.load_mbps) {
      if (l > top) {
        top = l;
        busiest = link;
      }
    }
    if (busiest.first < 0) break;

    // Try to move one flow off that link.
    Score best_score = score;
    bool found = false;
    FlowId best_flow = -1;
    std::vector<SwitchId> best_path;
    std::map<LinkId, double> best_loads;

    for (const auto& [l, points] : reroute_points) {
      // One move per flow: candidate tails are derived from the flow's
      // original prefix, so a second move would discard the first.
      if (current.contains(l)) continue;
      const auto& path = path_of(l);
      // Does the flow cross the busiest link?
      bool crosses = false;
      for (std::size_t i = 1; i < path.size(); ++i) {
        if (sdwan::make_link(path[i - 1], path[i]) == busiest) {
          crosses = true;
          break;
        }
      }
      if (!crosses) continue;
      const double rate = tm.of(l);
      for (SwitchId at : points) {
        // Reroute point must still be on the *current* path.
        if (std::find(path.begin(), path.end(), at) == path.end()) continue;
        for (auto& candidate : candidate_paths(net, l, at)) {
          // Tentative loads: remove old, add new.
          std::map<LinkId, double> tentative = loads.load_mbps;
          for (std::size_t i = 1; i < path.size(); ++i) {
            tentative.at(sdwan::make_link(path[i - 1], path[i])) -= rate;
          }
          add_path(candidate, rate, tentative);
          const Score new_score = score_of(tentative);
          if (new_score.better_than(best_score, options.min_gain)) {
            best_score = new_score;
            found = true;
            best_flow = l;
            best_path = candidate;
            best_loads = std::move(tentative);
          }
        }
      }
    }
    if (!found) break;  // no improving move
    loads.load_mbps = std::move(best_loads);
    current[best_flow] = best_path;
    result.new_paths[best_flow] = std::move(best_path);
    score = best_score;
    ++result.moves;
  }

  result.final_mlu = score.mlu;
  return result;
}

}  // namespace pm::core
