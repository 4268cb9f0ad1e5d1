// The repository's JSON primitives: one parser, one string escaper, one
// number writer.  Every JSON byte the system emits — run reports, sweep
// rows, service responses, scheme files, checkpoints, traces — goes
// through json_escape and write_double, and every JSON document it reads
// goes through parse_json.
//
// The parser is deliberately minimal (objects, arrays, strings, numbers,
// bools, null) but keeps NUMBER TOKENS RAW: task seeds are full-range
// uint64 values that a double-typed parser would corrupt, and
// byte-identical checkpoint resume depends on exact round-trips.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fmm {

/// Parsed JSON value.  Numbers keep their source token (`raw`);
/// as_i64/as_u64/as_double convert on demand.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  bool as_bool() const;
  std::int64_t as_i64() const;
  std::uint64_t as_u64() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;

  /// Object member lookup; nullptr when absent (throws if not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup; throws CheckError when absent.
  const JsonValue& at(const std::string& key) const;
  /// All object members in source order (throws if not an object) —
  /// lets strict consumers reject unknown fields.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// This value as one line of JSON: ", " and ": " separators, strings
  /// through json_escape, number tokens verbatim.
  std::string dump() const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;              // raw number token, or string value
  std::vector<JsonValue> items_;    // array elements
  std::vector<std::pair<std::string, JsonValue>> members_;  // object
};

/// Parses one JSON document; throws CheckError on malformed input or
/// trailing garbage.
JsonValue parse_json(std::string_view text);

/// The body of a JSON string literal for `s` (no surrounding quotes):
/// `"` and `\` are backslash-escaped, \n and \t use their short forms,
/// every other byte below 0x20 becomes \u00XX, and all other bytes
/// (0x7f, UTF-8 sequences) pass through unchanged.
std::string json_escape(std::string_view s);

/// Writes `value` as a JSON number with %.12g; inf and nan (which JSON
/// cannot represent) become null.
void write_double(std::ostream& os, double value);

}  // namespace fmm
