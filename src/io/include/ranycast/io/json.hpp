// Minimal JSON value model, parser and writer.
//
// Enough JSON for configuration files and experiment-result interchange:
// the full value model, UTF-8 pass-through strings with standard escapes,
// and precise error positions. No external dependencies.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
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

  /// Typed member readers: `fallback` when absent or of another type. int_or
  /// truncates, and gives `fallback` for a number outside int64's range.
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

/// A record (core/fields.hpp) as an object keyed by field name: integers
/// as int64, enums by name, an empty optional as null, nested records as
/// objects, vectors and arrays as arrays.
template <typename T>
Json to_json(const T& v) {
  if constexpr (std::same_as<T, bool> || std::same_as<T, double> ||
                std::same_as<T, std::string>) {
    return Json(v);
  } else if constexpr (std::integral<T>) {
    return Json(static_cast<std::int64_t>(v));
  } else if constexpr (core::NamedEnum<T>) {
    return Json(std::string(to_string(v)));
  } else if constexpr (std::same_as<T, std::optional<bool>>) {
    return v ? Json(*v) : Json(nullptr);
  } else if constexpr (std::same_as<T, std::vector<double>> || core::RecordVector<T> ||
                       core::RecordArray<T>) {
    JsonArray out;
    out.reserve(v.size());
    for (const auto& e : v) out.push_back(to_json(e));
    return Json(std::move(out));
  } else {
    static_assert(core::Record<T>, "not a record field");
    JsonObject out;
    for_each_field(v, [&out](std::string_view name, const auto& m) {
      out.emplace(std::string(name), to_json(m));
    });
    return Json(std::move(out));
  }
}

/// A configuration-loading failure with enough context to act on.
struct ConfigError {
  std::string file;       ///< path, or "<inline>" for in-memory documents
  std::size_t offset{0};  ///< byte offset of a syntax error; 0 when n/a
  std::string field;      ///< dotted path of the offending field; "" when n/a
  std::string message;

  /// "config.json: field 'census.total_probes': must be positive (got 0)"
  std::string to_string() const;
};

/// `d` as a T when it is a whole number within T's range; nullopt otherwise.
/// Defined for every double, NaN and the infinities included.
template <std::integral T>
  requires(!std::same_as<T, bool>)
std::optional<T> checked_integer(double d) noexcept {
  // 2^digits is exact as a double; a 64-bit T's maximum is not.
  constexpr double kEnd = static_cast<double>(std::numeric_limits<T>::max() / 2 + 1) * 2.0;
  constexpr double kBegin = std::is_signed_v<T> ? -kEnd : 0.0;
  if (!(d >= kBegin && d < kEnd) || d != std::trunc(d)) return std::nullopt;
  return static_cast<T>(d);
}

/// A ConfigError naming `field` of `file`, with no byte offset.
ConfigError field_error(std::string_view file, std::string field, std::string message);

/// Read a config record (core/fields.hpp), or a member type of one. Absent
/// or null members keep their value; unknown keys and entries beyond a
/// std::array's size are ignored. A wrong JSON type, a fraction or an
/// out-of-range number for an integer, or an unknown enum name is refused
/// by its dotted path: `base` is the path of `value` ("" at the root,
/// "traffic." for a block), so errors name "world.stub_count",
/// "geo_dbs[1].seed" or "traffic.site_capacity_mbps[1]". After an error
/// `value` may be partly read.
template <typename T>
std::optional<ConfigError> from_json(const Json& json, T& value, std::string_view file = {},
                                     std::string_view base = {}) {
  if (base.ends_with('.')) base.remove_suffix(1);
  const std::string path(base);
  const auto refuse = [&](const std::string& what) {
    return field_error(file, path, "must be " + what);
  };
  if constexpr (std::same_as<T, bool> || std::same_as<T, std::optional<bool>>) {
    if (!json.is_bool()) return refuse("true or false");
    value = json.as_bool();
  } else if constexpr (std::integral<T>) {
    const auto i = json.is_number() ? checked_integer<T>(json.as_number()) : std::nullopt;
    if (!i) {
      return refuse("an integer in [" + std::to_string(std::numeric_limits<T>::min()) + ", " +
                    std::to_string(std::numeric_limits<T>::max()) + "]");
    }
    value = *i;
  } else if constexpr (std::same_as<T, double>) {
    if (!json.is_number()) return refuse("a number");
    value = json.as_number();
  } else if constexpr (std::same_as<T, std::string>) {
    if (!json.is_string()) return refuse("a string");
    value = json.as_string();
  } else if constexpr (core::NamedEnum<T>) {
    if (!json.is_string()) return refuse("a string");
    std::string names;
    for (const T e : enum_values(value)) {
      if (to_string(e) == json.as_string()) {
        value = e;
        return std::nullopt;
      }
      names += (names.empty() ? "" : "|") + std::string(to_string(e));
    }
    return field_error(file, path, "unknown value '" + json.as_string() + "' (" + names + ")");
  } else if constexpr (std::same_as<T, std::vector<double>>) {
    if (!json.is_array()) return refuse("an array of numbers");
    std::vector<double> values;
    for (const Json& e : json.as_array()) {
      if (!e.is_number()) {
        return field_error(file, path + "[" + std::to_string(values.size()) + "]",
                           "must be a number");
      }
      values.push_back(e.as_number());
    }
    value = std::move(values);
  } else if constexpr (core::RecordArray<T>) {
    if (!json.is_array()) return refuse("an array");
    const JsonArray& entries = json.as_array();
    for (std::size_t i = 0; i < entries.size() && i < value.size(); ++i) {
      if (entries[i].is_null()) continue;
      if (auto err = from_json(entries[i], value[i], file, path + "[" + std::to_string(i) + "]")) {
        return err;
      }
    }
  } else {
    static_assert(core::Record<T>, "not a config record field");
    if (!json.is_object()) return refuse("an object");
    std::optional<ConfigError> err;
    for_each_field(value, [&](std::string_view name, auto& m) {
      const Json* member = err ? nullptr : json.find(name);
      if (member == nullptr || member->is_null()) return;
      err = from_json(*member, m, file, path.empty() ? name : path + "." + std::string(name));
    });
    return err;
  }
  return std::nullopt;
}

/// Parse a complete JSON document; trailing garbage is an error.
std::variant<Json, JsonParseError> parse_json(std::string_view text);

/// Convenience: parse or throw std::runtime_error with position info.
Json parse_json_or_throw(std::string_view text);

}  // namespace ranycast::io
