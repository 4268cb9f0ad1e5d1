#include "common/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "common/check.hpp"

namespace fmm {

bool JsonValue::as_bool() const {
  FMM_CHECK_MSG(kind_ == Kind::kBool, "json: not a bool");
  return bool_;
}

std::int64_t JsonValue::as_i64() const {
  FMM_CHECK_MSG(kind_ == Kind::kNumber, "json: not a number");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(scalar_.c_str(), &end, 10);
  FMM_CHECK_MSG(errno == 0 && end && *end == '\0',
                "json: '" << scalar_ << "' is not an int64");
  return static_cast<std::int64_t>(v);
}

std::uint64_t JsonValue::as_u64() const {
  FMM_CHECK_MSG(kind_ == Kind::kNumber, "json: not a number");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(scalar_.c_str(), &end, 10);
  FMM_CHECK_MSG(errno == 0 && end && *end == '\0' && scalar_[0] != '-',
                "json: '" << scalar_ << "' is not a uint64");
  return static_cast<std::uint64_t>(v);
}

double JsonValue::as_double() const {
  FMM_CHECK_MSG(kind_ == Kind::kNumber, "json: not a number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(scalar_.c_str(), &end);
  FMM_CHECK_MSG(end && *end == '\0',
                "json: '" << scalar_ << "' is not a double");
  return v;
}

const std::string& JsonValue::as_string() const {
  FMM_CHECK_MSG(kind_ == Kind::kString, "json: not a string");
  return scalar_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  FMM_CHECK_MSG(kind_ == Kind::kArray, "json: not an array");
  return items_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  FMM_CHECK_MSG(kind_ == Kind::kObject, "json: not an object");
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  FMM_CHECK_MSG(v != nullptr, "json: missing key '" << key << "'");
  return *v;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  FMM_CHECK_MSG(kind_ == Kind::kObject, "json: not an object");
  return members_;
}

std::string JsonValue::dump() const {
  switch (kind_) {
    case Kind::kNull: return "null";
    case Kind::kBool: return bool_ ? "true" : "false";
    case Kind::kNumber: return scalar_;
    case Kind::kString: return '"' + json_escape(scalar_) + '"';
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += (i == 0 ? "" : ", ") + items_[i].dump();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += (i == 0 ? "\"" : ", \"") + json_escape(members_[i].first) +
               "\": " + members_[i].second.dump();
      }
      return out + "}";
    }
  }
  return {};
}

/// Recursive-descent parser over the minimal JSON subset the repo's own
/// serializers emit.  Not a general-purpose validator (no \uXXXX beyond
/// pass-through, no depth limit) — its inputs are our own files.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    FMM_CHECK_MSG(pos_ == text_.size(),
                  "json: trailing garbage at offset " << pos_);
    return v;
  }

 private:
  char peek() {
    FMM_CHECK_MSG(pos_ < text_.size(), "json: unexpected end of input");
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect(char ch) {
    FMM_CHECK_MSG(peek() == ch, "json: expected '" << ch << "' at offset "
                                                   << pos_ << ", got '"
                                                   << peek() << "'");
    ++pos_;
  }

  bool try_consume(char ch) {
    if (pos_ < text_.size() && text_[pos_] == ch) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (try_consume('}')) {
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      // Duplicate keys are ambiguous (first-wins vs last-wins differs
      // per parser), so a request carrying them is rejected outright
      // rather than silently resolved.  Nothing this repo emits ever
      // duplicates a key.
      for (const auto& member : v.members_) {
        FMM_CHECK_MSG(member.first != key.scalar_,
                      "json: duplicate key '" << key.scalar_ << "'");
      }
      v.members_.emplace_back(key.scalar_, parse_value());
      skip_ws();
      if (try_consume('}')) {
        return v;
      }
      expect(',');
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (try_consume(']')) {
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      skip_ws();
      if (try_consume(']')) {
        return v;
      }
      expect(',');
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    while (true) {
      const char ch = peek();
      ++pos_;
      if (ch == '"') {
        return v;
      }
      if (ch != '\\') {
        v.scalar_.push_back(ch);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': v.scalar_.push_back('"'); break;
        case '\\': v.scalar_.push_back('\\'); break;
        case '/': v.scalar_.push_back('/'); break;
        case 'n': v.scalar_.push_back('\n'); break;
        case 't': v.scalar_.push_back('\t'); break;
        case 'r': v.scalar_.push_back('\r'); break;
        case 'b': v.scalar_.push_back('\b'); break;
        case 'f': v.scalar_.push_back('\f'); break;
        case 'u': {
          // \u00XX only (all our writer emits for control chars).
          FMM_CHECK_MSG(pos_ + 4 <= text_.size(), "json: truncated \\u");
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          v.scalar_.push_back(static_cast<char>(
              std::strtol(hex.c_str(), nullptr, 16)));
          break;
        }
        default:
          FMM_CHECK_MSG(false, "json: bad escape '\\" << esc << "'");
      }
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.bool_ = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.bool_ = false;
      pos_ += 5;
    } else {
      FMM_CHECK_MSG(false, "json: bad literal at offset " << pos_);
    }
    return v;
  }

  JsonValue parse_null() {
    FMM_CHECK_MSG(text_.compare(pos_, 4, "null") == 0,
                  "json: bad literal at offset " << pos_);
    pos_ += 4;
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNull;
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (try_consume('-')) {
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    FMM_CHECK_MSG(pos_ > start, "json: bad value at offset " << start);
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.scalar_ = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void write_double(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  os << buf;
}

}  // namespace fmm
