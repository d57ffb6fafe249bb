// hybrid_routing_demo — the mechanism PM relies on, shown packet by
// packet (the paper's Fig. 2): a high-priority OpenFlow table in front of
// an OSPF legacy table, per switch.
//
// The demo builds the ATT data plane, traces a flow under pure legacy
// routing, installs SDN entries to divert it, shows the hybrid fallback
// when entries are removed, and demonstrates the SDN-mode table-miss
// drop.
//
// Usage: ./build/examples/hybrid_routing_demo [--src=21] [--dst=0]
#include <iostream>

#include "core/scenario.hpp"
#include "sdwan/dataplane.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"

namespace {

void print_trace(const pm::sdwan::Network& net, const std::string& title,
                 const pm::sdwan::TraceResult& trace) {
  std::cout << title << ": ";
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    if (i > 0) std::cout << " -> ";
    std::cout << net.topology().node(trace.hops[i]).label;
  }
  if (!trace.delivered) std::cout << "  [" << trace.failure_reason << "]";
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const sdwan::Network net = core::make_att_network();
  const int last = net.switch_count() - 1;
  const auto src = static_cast<int>(args.get_int("src", 21, 0, last));
  const auto dst = static_cast<int>(args.get_int("dst", 0, 0, last));
  obs::apply_log_level_flag(args);

  if (src == dst) {
    obs::log().error("--src and --dst must be distinct nodes");
    return 1;
  }
  const sdwan::Packet packet{src, dst};

  std::cout << "=== Hybrid SDN/legacy routing (Fig. 2) ===\n"
            << "flow " << net.topology().node(src).label << " -> "
            << net.topology().node(dst).label << "\n\n";

  // (b) Pure legacy: OSPF tables forward along the shortest path.
  sdwan::Dataplane dp(net.topology(), sdwan::RoutingMode::kLegacy);
  print_trace(net, "legacy (OSPF) path    ", dp.trace(src, packet));

  // (c) Hybrid: install SDN entries diverting the first hop through the
  // second-best neighbor; unmatched packets still use OSPF.
  for (int s = 0; s < dp.switch_count(); ++s) {
    dp.at(s).set_mode(sdwan::RoutingMode::kHybrid);
  }
  // Find an alternative first hop: any neighbor that is not the OSPF
  // next hop and from which legacy routing reaches the destination
  // without coming back through src.
  const sdwan::SwitchId ospf_next =
      dp.at(src).legacy_table().next_hop(dst);
  for (const auto& arc : net.topology().graph().neighbors(src)) {
    if (arc.to == ospf_next) continue;
    dp.at(src).install({100, {src, dst}, arc.to});
    const auto diverted = dp.trace(src, packet);
    if (diverted.delivered) {
      std::cout << "install flow-mod at "
                << net.topology().node(src).label << ": next hop "
                << net.topology().node(arc.to).label
                << " (priority 100)\n";
      print_trace(net, "hybrid (SDN diverted) ", diverted);
      break;
    }
    dp.at(src).remove({src, dst});
  }

  // Remove the entry: hybrid falls back to the legacy table.
  dp.at(src).remove({src, dst});
  print_trace(net, "hybrid (after remove) ", dp.trace(src, packet));

  // (a) Pure SDN without entries: table-miss drops the packet.
  dp.at(src).set_mode(sdwan::RoutingMode::kSdn);
  print_trace(net, "pure SDN, empty table ", dp.trace(src, packet));

  std::cout << "\nThis per-flow choice between the two tables is exactly "
               "what lets PM set y_i^l per flow per switch (Sec. III).\n";
  return 0;
}
