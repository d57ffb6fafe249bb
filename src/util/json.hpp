// JSON: a value tree with a recursive-descent parser, and JsonWriter,
// the one serializer. Plans, case reports, service replies, metrics and
// traces stream through JsonWriter with no tree; a tree's to_string()
// walks it into one.
//
// Scope: the JSON subset needed here — null/bool/number/string/array/
// object, UTF-8 pass-through, \uXXXX escapes for BMP code points. Object
// member order is preserved (insertion order), which keeps serialized
// plans diffable. Non-finite numbers (NaN/Inf) have no JSON spelling and
// are written as null, so writer output is always parseable — a wire
// requirement for the JSONL service protocol (src/svc).
#pragma once

#include <cstdint>
#include <initializer_list>
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

class JsonWriter;

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
  /// Throws std::out_of_range unless the number is an integer in int's
  /// range.
  int as_int() const;
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

  /// Serializes through JsonWriter; `indent` > 0 pretty-prints with
  /// that many spaces per level.
  std::string to_string(int indent = 0) const;

  /// Parses a complete JSON document (rejects trailing garbage). Arrays
  /// and objects nested more than 256 deep throw JsonError.
  static JsonValue parse(std::string_view text);

  friend bool operator==(const JsonValue& a, const JsonValue& b);
  friend class JsonWriter;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Appends one JSON document to a string as its parts are named, with
/// no tree. key() starts an object member and the value call that
/// follows completes it; array elements need no separator call.
/// `indent` > 0 pretty-prints: one member or element per line, `indent`
/// spaces per level, `": "` after keys, empty containers as `{}`/`[]`.
/// Non-finite numbers write `null`, integral ones below 9e15 in
/// magnitude write as integers, the rest as %.17g; strings escape
/// quotes, backslashes and control bytes. The writer keeps no position
/// in `out`, so a caller may stream out the text so far and clear it.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = 0)
      : out_(out), indent_(indent) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  /// Starts the next member of the open object.
  JsonWriter& key(std::string_view name);

  void boolean(bool b) { raw(b ? "true" : "false"); }
  void number(double v);
  void string(std::string_view s) {
    separate();
    escaped(s);
  }
  /// A whole tree.
  void value(const JsonValue& v);
  /// Bytes that already are one JSON value (a cached case report).
  void raw(std::string_view json) {
    separate();
    out_ += json;
  }

  /// The next array element: an object of at most three integer members
  /// with names of at most 16 characters, formatted on the stack and
  /// appended once (the case report's lists). Compact output only.
  void int_object(
      std::initializer_list<std::pair<std::string_view, int>> members);

 private:
  /// What precedes the next value: nothing after a key or at the top
  /// level, else a comma unless it comes first, then pretty's newline.
  void separate();
  /// `s` quoted and escaped, with no separator.
  void escaped(std::string_view s);
  void open(char bracket);
  void close(char bracket);
  void newline();

  std::string& out_;
  int indent_;
  int depth_ = 0;
  /// No element yet in the innermost open container.
  bool first_ = true;
  bool after_key_ = false;
};

}  // namespace pm::util
