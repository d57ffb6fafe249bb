// Minimal JSON value tree with a writer and a recursive-descent parser —
// used to persist recovery plans and reports (core/serialize.hpp) so
// plans can be audited, diffed and replayed across runs.
//
// Scope: the JSON subset needed here — null/bool/number/string/array/
// object, UTF-8 pass-through, \uXXXX escapes for BMP code points. Object
// member order is preserved (insertion order), which keeps serialized
// plans diffable. Non-finite numbers (NaN/Inf) have no JSON spelling and
// are written as null, so writer output is always parseable — a wire
// requirement for the JSONL service protocol (src/svc).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pm::util {

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, std::size_t offset)
      : std::runtime_error("JSON error at offset " +
                           std::to_string(offset) + ": " + message),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// The writer's number and string spellings, shared by JsonValue and the
/// streaming writers that emit the same bytes without building a tree
/// (core::write_case_report). Non-finite numbers append `null`; integral
/// values below 9e15 in magnitude append as integers; every other number
/// appends as %.17g.
void write_number(std::string& out, double v);
/// Appends `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters; other bytes (UTF-8) pass through.
void write_escaped(std::string& out, std::string_view s);

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  JsonValue(int n) : JsonValue(static_cast<double>(n)) {}
  JsonValue(std::int64_t n) : JsonValue(static_cast<double>(n)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  // Typed accessors; throw std::logic_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  // Array interface.
  void push_back(JsonValue v);
  std::size_t size() const;
  const JsonValue& at(std::size_t i) const;

  // Object interface. operator[] inserts null on first access (write
  // path); at() throws on a missing key (read path).
  JsonValue& operator[](const std::string& key);
  const JsonValue& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Serializes; `indent` > 0 pretty-prints with that many spaces.
  std::string to_string(int indent = 0) const;

  /// Parses a complete JSON document (rejects trailing garbage).
  static JsonValue parse(std::string_view text);

  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  void write(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace pm::util
