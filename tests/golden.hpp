// Helpers shared by the golden tests: reading the files under tests/data
// (PM_TEST_DATA_DIR, set by tests/CMakeLists.txt) and the FNV-1a-64
// digests those files record, spelled as 16 lowercase hex digits.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace pm::golden {

/// The bytes of tests/data/<name>; a missing file fails the calling test.
inline std::string read_data_file(const std::string& name) {
  const std::string path = std::string(PM_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

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

}  // namespace pm::golden
