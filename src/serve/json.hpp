// Minimal owned JSON value for the `tabby serve` wire protocol
// (docs/SERVING.md): newline-delimited single-line documents, objects with
// insertion-ordered keys so responses serialize deterministically.
//
// Deliberately small: objects, arrays, strings, doubles (integers emitted
// without a decimal point), bools, null. 64-bit identifiers (classpath
// fingerprints) travel as fixed-width hex STRINGS — a double cannot carry
// all 64 bits and this parser does not try. Not a general-purpose JSON
// library; the daemon and client are its only customers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tabby::serve {

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;
  static Json object() { return Json(Kind::Object); }
  static Json array() { return Json(Kind::Array); }
  static Json boolean(bool value) {
    Json j(Kind::Bool);
    j.bool_ = value;
    return j;
  }
  static Json number(double value) {
    Json j(Kind::Number);
    j.number_ = value;
    return j;
  }
  static Json string(std::string value) {
    Json j(Kind::String);
    j.string_ = std::move(value);
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_string() const { return kind_ == Kind::String; }

  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<Json>& items() const { return items_; }

  // --- object access (all tolerate non-objects / missing keys) ------------
  bool has(std::string_view key) const { return find(key) != nullptr; }
  /// nullptr when absent (or this is not an object).
  const Json* find(std::string_view key) const;
  std::string str(std::string_view key, std::string fallback = "") const;
  double num(std::string_view key, double fallback = 0) const;
  bool flag(std::string_view key, bool fallback = false) const;
  /// Array member as a vector of strings (non-string elements skipped).
  std::vector<std::string> strings(std::string_view key) const;

  // --- builders ------------------------------------------------------------
  Json& set(std::string key, Json value);
  Json& set(std::string key, std::string value) { return set(std::move(key), string(std::move(value))); }
  Json& set(std::string key, const char* value) { return set(std::move(key), string(value)); }
  Json& set(std::string key, bool value) { return set(std::move(key), boolean(value)); }
  Json& set(std::string key, double value) { return set(std::move(key), number(value)); }
  Json& set(std::string key, std::uint64_t value) {
    return set(std::move(key), number(static_cast<double>(value)));
  }
  Json& set(std::string key, std::int64_t value) {
    return set(std::move(key), number(static_cast<double>(value)));
  }
  Json& push(Json value);

  /// Serializes to one line (no raw newlines — they are escaped in strings).
  std::string dump() const;

  /// Strict single-document parse; nullopt on any malformed input,
  /// including arrays and objects nested more than 64 deep.
  static std::optional<Json> parse(std::string_view text);

 private:
  explicit Json(Kind kind) : kind_(kind) {}

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> items_;                                // Array
  std::vector<std::pair<std::string, Json>> members_;      // Object, in order
};

/// Fixed-width lowercase hex for 64-bit protocol identifiers.
std::string hex64(std::uint64_t value);
/// Inverse of hex64; nullopt unless exactly 16 hex digits.
std::optional<std::uint64_t> parse_hex64(std::string_view text);

}  // namespace tabby::serve
