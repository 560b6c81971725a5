// The repo's one JSON layer: a strict, bounded reader into a small DOM
// (JsonValue), a canonical writer, and the one string escaper.
//
// Every JSON artifact the tools emit or read goes through here: served
// RunRequests and results (serve/), metrics snapshots and the aqt-report
// reader (obs/export, obs/report), JSONL event streams (obs/events),
// Perfetto traces and timeseries JSONL (obs/tracing, obs/timeseries), and
// the lint, verify and audit reports.  Readers call parse_json and walk
// the DOM; emitters that stream a fixed layout route every string through
// json_escape_string, so a name holding '"', '\' or a control byte can
// never break a document.
//
// Reading is hardened for untrusted input: malformed, truncated, oversized
// or too-deep input raises PreconditionError naming the source and byte
// offset — never an abort, never a hang, never UB.
//
// Writing is canonical by construction: objects serialize their members in
// insertion order, numbers through a fixed format, strings through one
// escaper — so two processes that build the same JsonValue emit the same
// bytes.  That is the property the serve round-trip contract rides on (a
// RunRequest served by aqt-serve and the same file run offline through
// aqt-sim produce byte-identical canonical forms).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace aqt {

/// Parser guardrails: callers never pay more than this for garbage input.
inline constexpr std::size_t kMaxJsonBytes = 1 << 20;  ///< 1 MiB per doc.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// One JSON value.  Objects keep member order (insertion order = emission
/// order); duplicate keys are a parse error, not a silent overwrite.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;  // null

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool v);
  static JsonValue make_int(std::int64_t v);
  static JsonValue make_double(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array();
  static JsonValue make_object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_int() const { return kind_ == Kind::kInt; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; AQT_REQUIRE on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;  ///< Accepts kInt too.
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;

  /// Array building.
  void push_back(JsonValue v);

  /// Object building: appends, or replaces an existing member in place
  /// (order of first insertion is preserved).
  void set(const std::string& key, JsonValue v);

  /// Object lookup; nullptr when absent (or when this is not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Strict parse of exactly one JSON document (trailing garbage rejected).
/// `where` names the source in diagnostics.  Throws PreconditionError.
JsonValue parse_json(const std::string& text, const std::string& where);

/// Canonical single-line serialization (no whitespace, members in stored
/// order, "%.17g" doubles with -0.0 written as 0, lowercase \uXXXX escapes
/// for control bytes).  write_json(parse_json(write_json(v))) ==
/// write_json(v) for every v.
std::string write_json(const JsonValue& value);
void write_json(const JsonValue& value, std::ostream& os);

/// The string escaper: the bytes between the quotes of a JSON string.
/// '"', '\\', \n, \r and \t get their short escapes; every other byte
/// below 0x20 becomes a lowercase \u00XX; all other bytes pass through.
std::string json_escape_string(const std::string& s);

}  // namespace aqt
