#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>

#include "util/strings.hpp"
#include "util/task_pool.hpp"

namespace pm::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) {
    program_ = argv[0];
    program_.erase(0, program_.rfind('/') + 1);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    if (!starts_with(tok, "--")) {
      tokens_.emplace_back(tok, "");
      continue;
    }
    const std::size_t eq = tok.find('=');
    const std::string name = tok.substr(2, eq - 2);
    tokens_.emplace_back(tok, name);
    if (eq != std::string::npos) {
      flags_[name].push_back(tok.substr(eq + 1));
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags_[name].push_back(argv[++i]);
      tokens_.emplace_back(argv[i], name);
    } else {
      flags_[name].push_back("true");
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.contains(name);
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second.back();
}

std::vector<std::string> CliArgs::get_strings(
    const std::string& name) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? std::vector<std::string>{} : it->second;
}

long long CliArgs::get_int(const std::string& name, long long fallback,
                           long long lo, long long hi) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second.back();
  long long v = 0;
  if (!parse_int(text, v) || v < lo || v > hi) {
    std::cerr << program_ << ": --" << name << "=" << text
              << " is not an integer in [" << lo << ", " << hi << "]\n";
    std::exit(2);
  }
  return v;
}

std::vector<long long> CliArgs::get_ints(const std::string& name,
                                         const std::string& fallback,
                                         long long lo, long long hi) const {
  const std::string text = get_string(name, fallback);
  std::vector<long long> out;
  for (const std::string& tok : split(text, ',')) {
    long long v = 0;
    if (!parse_int(tok, v) || v < lo || v > hi) {
      std::cerr << program_ << ": --" << name << "=" << text << ": '" << tok
                << "' is not an integer in [" << lo << ", " << hi << "]\n";
      std::exit(2);
    }
    out.push_back(v);
  }
  return out;
}

double CliArgs::get_double(const std::string& name, double fallback,
                           double lo, double hi) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second.back();
  double v = 0;
  // Written so that NaN fails the range test too.
  if (!parse_double(text, v) || !(v >= lo && v <= hi)) {
    std::cerr << program_ << ": --" << name << "=" << text
              << " is not a number in [" << lo << ", " << hi << "]\n";
    std::exit(2);
  }
  return v;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string v = to_lower(it->second.back());
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  std::cerr << program_ << ": --" << name << "=" << it->second.back()
            << " is not a boolean (true/false, 1/0, yes/no, on/off)\n";
  std::exit(2);
}

int parse_jobs_flag(CliArgs& args) {
  if (to_lower(args.get_string("jobs", "1")) == "auto") {
    return TaskPool::hardware_jobs();
  }
  return static_cast<int>(args.get_int("jobs", 1, 1, 1024));
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [token, flag] : tokens_) {
    if (flag.empty() || !queried_.contains(flag)) out.push_back(token);
  }
  return out;
}

}  // namespace pm::util
