#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace pm::util {

namespace {

const char* type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return "bool";
    case JsonValue::Type::kNumber: return "number";
    case JsonValue::Type::kString: return "string";
    case JsonValue::Type::kArray: return "array";
    case JsonValue::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(JsonValue::Type want, JsonValue::Type got) {
  throw std::logic_error(std::string("expected ") + type_name(want) +
                         ", got " + type_name(got));
}

}  // namespace

void write_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void write_number(std::string& out, double v) {
  // JSON has no NaN/Inf literal; %g would emit "nan"/"inf" and corrupt
  // the document. The wire protocol (src/svc) depends on every writer
  // output being parseable, so non-finite numbers deterministically
  // degrade to null.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[24];
    const auto end =
        std::to_chars(buf, buf + sizeof buf, static_cast<long long>(v)).ptr;
    out.append(buf, end);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

namespace {

/// Deepest array/object nesting parse() accepts. The parser recurses
/// once per level, so an unbounded depth lets one hostile request line
/// overflow the stack. Every document this project writes is far
/// shallower.
constexpr int kMaxNestingDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError(message, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxNestingDepth) fail("nesting too deep");
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return JsonValue(parse_string());
    if (consume_word("true")) return JsonValue(true);
    if (consume_word("false")) return JsonValue(false);
    if (consume_word("null")) return JsonValue();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return parse_number();
    }
    fail("unexpected character");
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned int code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // Encode the BMP code point as UTF-8 (surrogates unsupported).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) {
      pos_ = start;
      fail("malformed number");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error(Type::kBool, type_);
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error(Type::kNumber, type_);
  return number_;
}

int JsonValue::as_int() const {
  const double v = as_number();
  // The range test comes first: casting a double outside int's range is
  // undefined behaviour, and NaN fails both comparisons.
  if (!(v >= std::numeric_limits<int>::min() &&
        v <= std::numeric_limits<int>::max()) ||
      v != std::floor(v)) {
    throw std::out_of_range("expected an integer in int range");
  }
  return static_cast<int>(v);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error(Type::kString, type_);
  return string_;
}

void JsonValue::push_back(JsonValue v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error(Type::kArray, type_);
  array_.push_back(std::move(v));
}

std::size_t JsonValue::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  type_error(Type::kArray, type_);
}

const JsonValue& JsonValue::at(std::size_t i) const {
  if (type_ != Type::kArray) type_error(Type::kArray, type_);
  if (i >= array_.size()) throw std::out_of_range("json array index");
  return array_[i];
}

JsonValue& JsonValue::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error(Type::kObject, type_);
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(key, JsonValue());
  return object_.back().second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (type_ != Type::kObject) type_error(Type::kObject, type_);
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  throw std::out_of_range("missing json key '" + key + "'");
}

bool JsonValue::contains(const std::string& key) const {
  if (type_ != Type::kObject) return false;
  for (const auto& [k, v] : object_) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) type_error(Type::kObject, type_);
  return object_;
}

void JsonValue::write(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? "\n" + std::string(static_cast<std::size_t>(indent) *
                                          (static_cast<std::size_t>(depth) + 1),
                                      ' ')
                 : "";
  const std::string close_pad =
      indent > 0 ? "\n" + std::string(static_cast<std::size_t>(indent) *
                                          static_cast<std::size_t>(depth),
                                      ' ')
                 : "";
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: write_number(out, number_); return;
    case Type::kString: write_escaped(out, string_); return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        out += pad;
        array_[i].write(out, indent, depth + 1);
      }
      out += close_pad;
      out += ']';
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ',';
        first = false;
        out += pad;
        write_escaped(out, k);
        out += indent > 0 ? ": " : ":";
        v.write(out, indent, depth + 1);
      }
      out += close_pad;
      out += '}';
      return;
    }
  }
}

std::string JsonValue::to_string(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

JsonValue JsonValue::parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case JsonValue::Type::kNull: return true;
    case JsonValue::Type::kBool: return a.bool_ == b.bool_;
    case JsonValue::Type::kNumber: return a.number_ == b.number_;
    case JsonValue::Type::kString: return a.string_ == b.string_;
    case JsonValue::Type::kArray: return a.array_ == b.array_;
    case JsonValue::Type::kObject: return a.object_ == b.object_;
  }
  return false;
}

}  // namespace pm::util
