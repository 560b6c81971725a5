#include "aqt/util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>

#include "aqt/util/check.hpp"

namespace aqt {

JsonValue JsonValue::make_bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::make_int(std::int64_t v) {
  JsonValue out;
  out.kind_ = Kind::kInt;
  out.int_ = v;
  return out;
}

JsonValue JsonValue::make_double(double v) {
  AQT_REQUIRE(std::isfinite(v), "JSON cannot carry non-finite number " << v);
  JsonValue out;
  out.kind_ = Kind::kDouble;
  out.double_ = v;
  return out;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::make_array() {
  JsonValue out;
  out.kind_ = Kind::kArray;
  return out;
}

JsonValue JsonValue::make_object() {
  JsonValue out;
  out.kind_ = Kind::kObject;
  return out;
}

bool JsonValue::as_bool() const {
  AQT_REQUIRE(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  AQT_REQUIRE(kind_ == Kind::kInt, "JSON value is not an integer");
  return int_;
}

double JsonValue::as_double() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  AQT_REQUIRE(kind_ == Kind::kDouble, "JSON value is not a number");
  return double_;
}

const std::string& JsonValue::as_string() const {
  AQT_REQUIRE(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  AQT_REQUIRE(kind_ == Kind::kArray, "JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  AQT_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  return members_;
}

void JsonValue::push_back(JsonValue v) {
  AQT_REQUIRE(kind_ == Kind::kArray, "push_back on a non-array JSON value");
  items_.push_back(std::move(v));
}

void JsonValue::set(const std::string& key, JsonValue v) {
  AQT_REQUIRE(kind_ == Kind::kObject, "set on a non-object JSON value");
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& member : members_)
    if (member.first == key) return &member.second;
  return nullptr;
}

std::string json_escape_string(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Strict recursive-descent parser with byte/depth bounds.  Position-
/// attributed PreconditionError on any malformation.
class Parser {
 public:
  Parser(const std::string& text, const std::string& where)
      : s_(text), where_(where) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    AQT_REQUIRE(false, "" << where_ << ": " << what << " at byte " << pos_);
#if defined(__GNUC__)
    __builtin_unreachable();
#endif
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  void literal(const char* rest) {
    for (const char* p = rest; *p != '\0'; ++p) expect(*p);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control byte in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4U;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // UTF-8-encode the code point (BMP only; surrogates rejected —
          // the wire protocol carries names and paths, not prose).
          if (code >= 0xd800 && code <= 0xdfff)
            fail("surrogate \\u escape unsupported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
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
    if (peek() < '0' || peek() > '9') fail("expected digit");
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    bool is_double = false;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (peek() < '0' || peek() > '9') fail("expected fraction digit");
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (peek() < '0' || peek() > '9') fail("expected exponent digit");
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    const std::string tok = s_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec != std::errc() || ptr != tok.data() + tok.size())
        fail("integer out of range");
      return JsonValue::make_int(v);
    }
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec == std::errc::result_out_of_range) {
      // from_chars reports underflow and overflow alike.  Underflow reads as
      // a signed zero, as strtod rounds it; overflow is an error.
      if (!magnitude_below_one(tok)) fail("number out of range");
      v = tok.front() == '-' ? -0.0 : 0.0;
    } else if (ec != std::errc() || ptr != tok.data() + tok.size()) {
      fail("malformed number");
    }
    return JsonValue::make_double(v);
  }

  /// True when the JSON number `tok` (grammar already checked) is below 1
  /// in magnitude: its first significant digit, scaled by the exponent,
  /// lies right of the decimal point.
  static bool magnitude_below_one(std::string_view tok) {
    if (tok.front() == '-') tok.remove_prefix(1);
    const std::size_t exp_at = std::min(tok.find_first_of("eE"), tok.size());
    const std::string_view mantissa = tok.substr(0, exp_at);
    const std::size_t point = std::min(mantissa.find('.'), mantissa.size());
    const std::size_t first = mantissa.find_first_not_of("0.");
    if (first == std::string_view::npos) return true;  // All zeros.
    // Power of ten of the first significant digit.
    std::int64_t power = first < point
                             ? static_cast<std::int64_t>(point - first) - 1
                             : -static_cast<std::int64_t>(first - point);
    if (exp_at < tok.size()) {
      std::string_view digits = tok.substr(exp_at + 1);
      const bool negative = digits.front() == '-';
      if (negative || digits.front() == '+') digits.remove_prefix(1);
      // Saturates: past a million, the exponent's sign alone decides.
      std::int64_t exponent = 0;
      for (const char c : digits)
        exponent = std::min<std::int64_t>(exponent * 10 + (c - '0'), 1000000);
      power += negative ? -exponent : exponent;
    }
    return power < 0;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth >= kMaxJsonDepth) fail("JSON nesting too deep");
    skip_ws();
    const char c = peek();
    if (c == '{') {
      take();
      JsonValue obj = JsonValue::make_object();
      skip_ws();
      if (consume('}')) return obj;
      for (;;) {
        skip_ws();
        const std::string key = parse_string();
        if (obj.find(key) != nullptr) fail("duplicate key '" + key + "'");
        skip_ws();
        expect(':');
        obj.set(key, parse_value(depth + 1));
        skip_ws();
        if (consume(',')) continue;
        expect('}');
        return obj;
      }
    }
    if (c == '[') {
      take();
      JsonValue arr = JsonValue::make_array();
      skip_ws();
      if (consume(']')) return arr;
      for (;;) {
        arr.push_back(parse_value(depth + 1));
        skip_ws();
        if (consume(',')) continue;
        expect(']');
        return arr;
      }
    }
    if (c == '"') return JsonValue::make_string(parse_string());
    if (c == 't') {
      literal("true");
      return JsonValue::make_bool(true);
    }
    if (c == 'f') {
      literal("false");
      return JsonValue::make_bool(false);
    }
    if (c == 'n') {
      literal("null");
      return JsonValue::make_null();
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  const std::string& s_;
  const std::string& where_;
  std::size_t pos_ = 0;
};

void write_value(const JsonValue& v, std::ostream& os) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: os << "null"; break;
    case JsonValue::Kind::kBool: os << (v.as_bool() ? "true" : "false"); break;
    case JsonValue::Kind::kInt: os << v.as_int(); break;
    case JsonValue::Kind::kDouble: {
      // -0.0 would print "-0", which reads back as the integer 0; write the
      // 0 it compares equal to, so canonical output is a fixed point.
      const double d = v.as_double() == 0.0 ? 0.0 : v.as_double();
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      os << buf;
      break;
    }
    case JsonValue::Kind::kString:
      os << '"' << json_escape_string(v.as_string()) << '"';
      break;
    case JsonValue::Kind::kArray: {
      os << '[';
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) os << ',';
        first = false;
        write_value(item, os);
      }
      os << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      os << '{';
      bool first = true;
      for (const auto& member : v.members()) {
        if (!first) os << ',';
        first = false;
        os << '"' << json_escape_string(member.first) << "\":";
        write_value(member.second, os);
      }
      os << '}';
      break;
    }
  }
}

}  // namespace

JsonValue parse_json(const std::string& text, const std::string& where) {
  AQT_REQUIRE(text.size() <= kMaxJsonBytes,
              "" << where << ": JSON document of " << text.size()
                   << " bytes exceeds the " << kMaxJsonBytes
                   << "-byte limit");
  Parser p(text, where);
  return p.parse_document();
}

void write_json(const JsonValue& value, std::ostream& os) {
  write_value(value, os);
}

std::string write_json(const JsonValue& value) {
  std::ostringstream os;
  write_value(value, os);
  return os.str();
}

}  // namespace aqt
