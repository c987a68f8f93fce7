#include "mbq/common/json.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <bit>
#include <limits>

#include "mbq/common/error.h"

namespace mbq::json {

const std::string& JsonValue::str() const {
  MBQ_REQUIRE(is_string(), "JSON: expected a string");
  return std::get<std::string>(v);
}

real JsonValue::num() const {
  MBQ_REQUIRE(std::holds_alternative<real>(v), "JSON: expected a number");
  return std::get<real>(v);
}

bool JsonValue::boolean() const {
  MBQ_REQUIRE(std::holds_alternative<bool>(v), "JSON: expected a boolean");
  return std::get<bool>(v);
}

const JsonArray& JsonValue::array() const {
  MBQ_REQUIRE(std::holds_alternative<std::shared_ptr<JsonArray>>(v),
              "JSON: expected an array");
  return *std::get<std::shared_ptr<JsonArray>>(v);
}

const JsonObject& JsonValue::object() const {
  MBQ_REQUIRE(std::holds_alternative<std::shared_ptr<JsonObject>>(v),
              "JSON: expected an object");
  return *std::get<std::shared_ptr<JsonObject>>(v);
}

namespace {

bool is_hex(const std::string& s) {
  for (const char c : s)
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    MBQ_REQUIRE(pos_ == text_.size(),
                "JSON: trailing garbage at byte " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    MBQ_REQUIRE(pos_ < text_.size(), "JSON: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    MBQ_REQUIRE(peek() == c, "JSON: expected '" << c << "' at byte " << pos_
                                                << ", got '" << peek()
                                                << "'");
    ++pos_;
  }

  bool try_consume(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return JsonValue{string()};
    if (try_consume("true")) return JsonValue{true};
    if (try_consume("false")) return JsonValue{false};
    if (try_consume("null")) return JsonValue{nullptr};
    return number();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      MBQ_REQUIRE(pos_ < text_.size(), "JSON: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      MBQ_REQUIRE(pos_ < text_.size(), "JSON: unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Four hex digits naming an ASCII code point: json_escape emits
          // this escape only for control bytes, and UTF-8 passes raw.
          MBQ_REQUIRE(pos_ + 4 <= text_.size(), "JSON: truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          MBQ_REQUIRE(is_hex(hex), "JSON: bad \\u escape '\\u"
                                       << hex << "' at byte " << pos_);
          const unsigned long code = std::strtoul(hex.c_str(), nullptr, 16);
          MBQ_REQUIRE(code <= 0x7F, "JSON: \\u escape '\\u"
                                        << hex << "' at byte " << pos_
                                        << " is not ASCII");
          pos_ += 4;
          out += static_cast<char>(code);
          break;
        }
        default:
          throw Error("JSON: unsupported escape '\\" + std::string(1, e) +
                      "'");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    MBQ_REQUIRE(pos_ > start, "JSON: expected a value at byte " << start);
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    MBQ_REQUIRE(end == tok.c_str() + tok.size(),
                "JSON: bad number '" << tok << "' at byte " << start);
    return JsonValue{static_cast<real>(v)};
  }

  JsonValue array() {
    expect('[');
    auto arr = std::make_shared<JsonArray>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{arr};
    }
    while (true) {
      arr->push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{arr};
    }
  }

  JsonValue object() {
    expect('{');
    auto obj = std::make_shared<JsonObject>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    while (true) {
      skip_ws();
      const std::string key = string();
      skip_ws();
      expect(':');
      (*obj)[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{obj};
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

const JsonValue& field(const JsonObject& obj, const std::string& key) {
  const auto it = obj.find(key);
  MBQ_REQUIRE(it != obj.end(), "JSON: missing field '" << key << "'");
  return it->second;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(real v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(v));
  return buf;
}

std::string json_hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "\"0x%016" PRIx64 "\"", v);
  return buf;
}

std::string json_real_bits(real v) {
  return json_hex64(std::bit_cast<std::uint64_t>(static_cast<double>(v)));
}

real read_double(const JsonValue& v) {
  if (v.is_string()) {
    const std::string& s = v.str();
    if (s == "inf") return std::numeric_limits<real>::infinity();
    if (s == "-inf") return -std::numeric_limits<real>::infinity();
    if (s == "nan") return std::numeric_limits<real>::quiet_NaN();
    throw Error("JSON: '" + s + "' is not a number");
  }
  return v.num();
}

real read_real(const JsonValue& v) {
  if (v.is_string() && v.str().starts_with("0x"))
    return static_cast<real>(std::bit_cast<double>(read_hex64(v)));
  return read_double(v);
}

std::uint64_t read_hex64(const JsonValue& v) {
  // Exactly json_hex64's form: "0x" and 16 hex digits (strtoull alone
  // would also take a sign, leading spaces and more digits).
  const std::string& s = v.str();
  MBQ_REQUIRE(s.size() == 18 && s.starts_with("0x") && is_hex(s.substr(2)),
              "JSON: '" << s << "' is not a 0x string of 16 hex digits");
  return std::strtoull(s.c_str() + 2, nullptr, 16);
}

std::uint64_t read_u64(const JsonValue& v) {
  const real n = v.num();
  MBQ_REQUIRE(n >= 0 && n == std::floor(n) && n <= 9007199254740992.0,
              "JSON: " << n << " is not an exact unsigned integer");
  return static_cast<std::uint64_t>(n);
}

int read_int(const JsonValue& v) {
  const real n = v.num();
  MBQ_REQUIRE(n == std::floor(n) && n >= -2147483648.0 && n <= 2147483647.0,
              "JSON: " << n << " is not an exact 32-bit integer");
  return static_cast<int>(n);
}

}  // namespace mbq::json
