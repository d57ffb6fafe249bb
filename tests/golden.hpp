// Helpers shared by the golden tests: reading the files under tests/data
// (PM_TEST_DATA_DIR, set by tests/CMakeLists.txt) and those a program
// wrote under the build tree (PM_TEST_OUTPUT_DIR), the 64-bit FNV-1a
// digests those files record, spelled as 16 lowercase hex digits, and
// the 150-node network of the benchmark's miss workload.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "sdwan/network.hpp"
#include "topo/generators.hpp"
#include "topo/placement.hpp"

namespace pm::golden {

/// The bytes of the file at `path`; a missing file fails the calling
/// test.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The bytes of tests/data/<name>.
inline std::string read_data_file(const std::string& name) {
  return read_file(std::string(PM_TEST_DATA_DIR) + "/" + name);
}

/// <build>/tests/<name>/, created if missing: where a test that runs a
/// program keeps what the program wrote, for inspection after the run.
inline std::string output_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(PM_TEST_OUTPUT_DIR) / name;
  std::filesystem::create_directories(dir);
  return dir.string() + "/";
}

/// FNV-1a with the 64-bit prime, started from 1469598103934665603. That
/// is not standard FNV-1a-64, whose offset basis is
/// 14695981039346656037 (one digit more), so a stock FNV-1a-64 tool
/// computes other digests from the same bytes. Every digest file in
/// tests/data was made with this basis; changing it rewrites them all.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// The serve_misses_waxman150 network: waxman(150, 0.5, 0.25, 1) with 12
// k-center controllers at 1.15x the peak normal load. Plans here hold
// thousands of assignments and run controllers out of residual capacity,
// which the ATT digests never do.
inline sdwan::Network make_waxman150_network() {
  topo::Topology topology = topo::waxman(150, 0.5, 0.25, 1);
  topo::Domains domains = topo::k_center_domains(topology, 12);
  sdwan::NetworkConfig config;
  config.controller_capacity = 1e9;
  double max_load = 0.0;
  {
    const sdwan::Network probe(topology, domains, config);
    for (int j = 0; j < probe.controller_count(); ++j) {
      max_load = std::max(max_load, probe.normal_load(j));
    }
  }
  config.controller_capacity = 1.15 * max_load;
  return sdwan::Network(std::move(topology), std::move(domains), config);
}

}  // namespace pm::golden
