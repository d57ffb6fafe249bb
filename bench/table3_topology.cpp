// Regenerates the paper's Table III: the default relationship between
// controllers, switches and the number of flows per switch on the ATT
// backbone — printed as measured-vs-paper so the calibration of the
// synthesized topology (DESIGN.md, substitution 1) is auditable.
#include <iostream>

#include "bench_common.hpp"
#include "sdwan/failure.hpp"
#include "topo/att.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const bool verbose = args.get_bool("verbose", false);
  obs::apply_log_level_flag(args);

  const sdwan::Network net = core::make_att_network();
  const auto paper = topo::att_paper_flow_counts();

  std::cout << "Table III — controllers, switches, and flows per switch\n"
            << "(topology: " << net.topology().name() << ", "
            << net.topology().node_count() << " nodes, "
            << 2 * net.topology().link_count() << " directed links, "
            << net.flow_count() << " flows, capacity "
            << bench::num(net.controller(0).capacity, 0)
            << " per controller)\n";

  util::TextTable t({"controller", "switch", "city", "flows (measured)",
                     "flows (paper)"});
  for (int j = 0; j < net.controller_count(); ++j) {
    const auto& c = net.controller(j);
    for (sdwan::SwitchId s : c.domain) {
      t.add_row({c.name, std::to_string(s), net.topology().node(s).label,
                 std::to_string(net.flow_count_at(s)),
                 std::to_string(paper[static_cast<std::size_t>(s)])});
    }
  }
  t.print(std::cout);

  std::cout << "\nDomain loads and residual capacities\n";
  util::TextTable d({"controller", "domain size", "normal load",
                     "residual capacity"});
  for (int j = 0; j < net.controller_count(); ++j) {
    const auto& c = net.controller(j);
    d.add_row({c.name, std::to_string(c.domain.size()),
               bench::num(net.normal_load(j), 0),
               bench::num(c.capacity - net.normal_load(j), 0)});
  }
  d.print(std::cout);

  if (verbose) {
    std::cout << "\nPer-switch delay to each controller (ms)\n";
    std::vector<std::string> head{"switch"};
    for (int j = 0; j < net.controller_count(); ++j) {
      head.push_back(net.controller(j).name);
    }
    util::TextTable dd(head);
    for (int s = 0; s < net.switch_count(); ++s) {
      std::vector<std::string> row{std::to_string(s)};
      for (int j = 0; j < net.controller_count(); ++j) {
        row.push_back(bench::num(net.delay_ms(s, j), 2));
      }
      dd.add_row(row);
    }
    dd.print(std::cout);
  }
  return 0;
}
