// The node list of a --fail or --kill-at flag, read by
// sdwan::FailureScenario::parse. A token that is no node id, or a node
// that hosts no controller, is refused like every other bad flag value:
// the program names the flag on stderr and exits 2.
#pragma once

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sdwan/failure.hpp"

namespace pm::examples {

/// The controllers at `nodes`, the node list of the flag token `flag`
/// (e.g. "--fail=13,21", or "--kill-at=850:21" with nodes "21") of
/// `program`; exits 2 when FailureScenario::parse refuses it.
inline sdwan::FailureScenario parse_failure_or_exit(
    const sdwan::Network& net, std::string_view program,
    const std::string& flag, std::string_view nodes) {
  try {
    return sdwan::FailureScenario::parse(net, nodes);
  } catch (const std::invalid_argument& e) {
    std::cerr << program << ": " << flag << ": " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace pm::examples
