#include "sdwan/traffic.hpp"

#include <numeric>
#include <stdexcept>

namespace pm::sdwan {

double TrafficMatrix::total() const {
  return std::accumulate(rate.begin(), rate.end(), 0.0);
}

TrafficMatrix uniform_traffic(const Network& net, double per_flow_mbps) {
  TrafficMatrix tm;
  tm.rate.assign(static_cast<std::size_t>(net.flow_count()), per_flow_mbps);
  return tm;
}

TrafficMatrix gravity_traffic(const Network& net, double total_mbps) {
  const int n = net.switch_count();
  std::vector<double> weight(static_cast<std::size_t>(n), 0.0);
  for (int s = 0; s < n; ++s) {
    weight[static_cast<std::size_t>(s)] =
        static_cast<double>(net.topology().graph().degree(s));
  }
  TrafficMatrix tm;
  tm.rate.assign(static_cast<std::size_t>(net.flow_count()), 0.0);
  double mass = 0.0;
  for (const Flow& f : net.flows()) {
    const double w = weight[static_cast<std::size_t>(f.src)] *
                     weight[static_cast<std::size_t>(f.dst)];
    tm.rate[static_cast<std::size_t>(f.id)] = w;
    mass += w;
  }
  if (mass <= 0.0) throw std::logic_error("degenerate gravity weights");
  for (double& r : tm.rate) r *= total_mbps / mass;
  return tm;
}

void apply_source_surge(TrafficMatrix& tm, const Network& net,
                        SwitchId source, double factor) {
  for (const Flow& f : net.flows()) {
    if (f.src == source) {
      tm.rate.at(static_cast<std::size_t>(f.id)) *= factor;
    }
  }
}

LinkId make_link(SwitchId a, SwitchId b) {
  return a < b ? LinkId{a, b} : LinkId{b, a};
}

LinkLoads compute_link_loads(
    const Network& net, const TrafficMatrix& tm, double link_capacity_mbps,
    const std::map<FlowId, std::vector<SwitchId>>& path_overrides) {
  if (link_capacity_mbps <= 0.0) {
    throw std::invalid_argument("link capacity must be positive");
  }
  LinkLoads out;
  for (const auto& e : net.topology().graph().edges()) {
    out.load_mbps[{e.u, e.v}] = 0.0;
  }
  for (const Flow& f : net.flows()) {
    const auto it = path_overrides.find(f.id);
    const std::vector<SwitchId>& path =
        it == path_overrides.end() ? f.path : it->second;
    const double r = tm.of(f.id);
    if (r == 0.0) continue;
    for (std::size_t i = 1; i < path.size(); ++i) {
      out.load_mbps.at(make_link(path[i - 1], path[i])) += r;
    }
  }
  for (const auto& [link, load] : out.load_mbps) {
    const double u = load / link_capacity_mbps;
    if (u > out.max_utilization) {
      out.max_utilization = u;
      out.busiest_link = link;
    }
    if (load > link_capacity_mbps) ++out.congested_links;
  }
  return out;
}

}  // namespace pm::sdwan
