// Shared reporting helpers for the benches. Each bench regenerates one
// table or figure of the paper, or one extension study, as aligned text
// tables (the same series a plot would show).
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace pm::bench {

/// Formats a double with `prec` decimals.
inline std::string num(double v, int prec = 1) {
  return util::format_double(v, prec);
}

inline std::string pct(double fraction, int prec = 1) {
  return util::format_double(100.0 * fraction, prec) + "%";
}

}  // namespace pm::bench
