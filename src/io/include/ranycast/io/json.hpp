// Minimal JSON value model, parser and writer.
//
// Enough JSON for configuration files and experiment-result interchange:
// the full value model, UTF-8 pass-through strings with standard escapes,
// and precise error positions. No external dependencies.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "ranycast/core/fields.hpp"

namespace ranycast::io {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool is_array() const noexcept { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Object member access; nullptr when absent or not an object.
  const Json* find(std::string_view key) const;

  /// Typed member readers with defaults (for config files).
  double number_or(std::string_view key, double fallback) const;
  std::int64_t int_or(std::string_view key, std::int64_t fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;

  /// Serialize; `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

struct JsonParseError {
  std::size_t position{0};
  std::string message;
};

/// A report record (core/fields.hpp) as an object keyed by field name:
/// integers as int64, nested records as objects, vectors as arrays.
template <typename T>
Json to_json(const T& v) {
  if constexpr (std::same_as<T, bool> || std::same_as<T, double> ||
                std::same_as<T, std::string>) {
    return Json(v);
  } else if constexpr (std::unsigned_integral<T>) {
    return Json(static_cast<std::int64_t>(v));
  } else if constexpr (core::RecordVector<T>) {
    JsonArray out;
    out.reserve(v.size());
    for (const auto& e : v) out.push_back(to_json(e));
    return Json(std::move(out));
  } else {
    static_assert(core::Record<T>, "not a report record field");
    JsonObject out;
    for_each_field(v, [&out](std::string_view name, const auto& m) {
      out.emplace(std::string(name), to_json(m));
    });
    return Json(std::move(out));
  }
}

/// Parse a complete JSON document; trailing garbage is an error.
std::variant<Json, JsonParseError> parse_json(std::string_view text);

/// Convenience: parse or throw std::runtime_error with position info.
Json parse_json_or_throw(std::string_view text);

}  // namespace ranycast::io
