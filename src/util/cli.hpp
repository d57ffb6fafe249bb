// Tiny --flag=value / --flag value command-line parser for examples and
// benches. Deliberately minimal: flags are looked up by name with a typed
// default; unknown flags are reported so typos do not silently change runs.
#pragma once

#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pm::util {

/// Upper bound of a real-valued flag that has none.
inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

class CliArgs {
 public:
  /// Parses argv. Accepts "--name=value", "--name value" and bare "--name"
  /// (boolean true). No program takes positional arguments: a non-flag
  /// token that is no flag's value is only reported by unused().
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// The integer value of --name, or `fallback` when absent. A value
  /// that is not an integer or lies outside [lo, hi] is refused: the
  /// program prints a message naming the flag and exits with status 2.
  long long get_int(const std::string& name, long long fallback,
                    long long lo, long long hi) const;
  /// The comma-separated integers of --name (of `fallback` when absent),
  /// in order. A token that is not an integer in [lo, hi] is refused
  /// like a bad get_int value.
  std::vector<long long> get_ints(const std::string& name,
                                  const std::string& fallback, long long lo,
                                  long long hi) const;
  /// The real value of --name, or `fallback` when absent. A value that
  /// is not a number or lies outside [lo, hi] is refused the same way.
  double get_double(const std::string& name, double fallback, double lo,
                    double hi) const;
  /// The boolean value of --name, or `fallback` when absent. Accepts
  /// true/false, 1/0, yes/no and on/off in any case (a bare --name reads
  /// true); anything else is refused the same way.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Every value a repeatable flag was given, in command-line order
  /// (e.g. --kill-at=900:0 --kill-at=950:1). Empty when absent. The
  /// single-value getters above return the LAST occurrence.
  std::vector<std::string> get_strings(const std::string& name) const;

  /// The command-line tokens the program never read, as typed and in
  /// order: those of each flag never queried via get_* (its value
  /// included) and every token that belongs to no flag. Call at the end
  /// of flag handling to warn about typos.
  std::vector<std::string> unused() const;

 private:
  std::string program_;
  std::map<std::string, std::vector<std::string>> flags_;
  mutable std::map<std::string, bool> queried_;
  /// Every token after the program name, with the name of the flag it
  /// belongs to ("" for none).
  std::vector<std::pair<std::string, std::string>> tokens_;
};

/// The shared --jobs=N flag: scenario-level parallelism for the sweep
/// drivers (util::TaskPool size). Accepts "auto" (hardware concurrency)
/// or an integer in [1, 1024]; anything else is refused like get_int.
/// Absent, it is 1, the bit-identical serial default.
int parse_jobs_flag(CliArgs& args);

}  // namespace pm::util
