#pragma once
// Minimal in-house JSON: a strict recursive-descent reader plus the
// writer helpers our emitters share (bench/report.cpp,
// api/workload_spec_json.cpp).
//
// The reader parses exactly the subset our writers emit (objects,
// arrays, strings, numbers, booleans, null) — enough to read our own
// text back without a dependency.  Malformed input throws Error with a
// byte offset; parse_json rejects trailing garbage.
//
// The writer helpers pin the exactness conventions: json_double emits 17
// significant digits (every finite double round-trips bit-exactly;
// non-finite values become quoted "inf"/"-inf"/"nan"), json_hex64 emits
// 64-bit values as "0x..." strings (JSON numbers are exact only up to
// 2^53), and json_real_bits emits a double's IEEE-754 bit pattern as a
// hex string for when even the text must be bit-precise.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "mbq/common/types.h"

namespace mbq::json {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, real, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  bool is_string() const { return std::holds_alternative<std::string>(v); }
  /// Typed accessors; each throws Error when the value holds another type.
  const std::string& str() const;
  real num() const;
  bool boolean() const;
  const JsonArray& array() const;
  const JsonObject& object() const;
};

/// Parse a complete JSON document; throws Error (with a byte offset) on
/// malformed input or trailing garbage.
JsonValue parse_json(const std::string& text);

/// Required-field lookup; throws Error naming the missing key.
const JsonValue& field(const JsonObject& obj, const std::string& key);

// --- writer helpers --------------------------------------------------------

std::string json_escape(const std::string& s);

/// 17 significant digits: every finite double round-trips bit-exactly
/// through this text.  Non-finite values become quoted strings (JSON has
/// no inf/nan literals).
std::string json_double(real v);

/// "0x%016x" string — exact for any 64-bit value.
std::string json_hex64(std::uint64_t v);

/// The double's IEEE-754 bit pattern as a json_hex64 string; the exact
/// form read_real accepts for any value, finite or not.
std::string json_real_bits(real v);

// --- typed readers ---------------------------------------------------------

/// Accepts json_double's encoding: a number, or one of the quoted
/// non-finite markers.
real read_double(const JsonValue& v);

/// Accepts a number, a "0x..." bit-pattern string (json_real_bits), or a
/// quoted non-finite marker — the lenient real reader for formats where
/// hand-authored numbers and bit-exact hex must both work.
real read_real(const JsonValue& v);

std::uint64_t read_hex64(const JsonValue& v);

/// A number that is an exact unsigned integer (<= 2^53).
std::uint64_t read_u64(const JsonValue& v);

/// A number that is an exact signed integer within int range.
int read_int(const JsonValue& v);

}  // namespace mbq::json
