// Small string helpers shared by the GML parser, CSV writer and CLI.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pm::util {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char delim);

std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

std::string to_lower(std::string_view s);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses an integer/double; returns false on malformed input (no throw).
bool parse_int(std::string_view s, long long& out);
bool parse_double(std::string_view s, double& out);

/// printf-style formatting into std::string.
std::string format_double(double v, int precision);

}  // namespace pm::util
