// One field list per record.
//
// A report or config record states its schema once, next to its struct:
//
//   template <core::RecordOf<StepReport> Self, typename F>
//   void for_each_field(Self& r, F&& f) {
//     f("index", r.index);
//     f("event", r.event);
//     ...
//   }
//
// It calls f(name, member) for each field in declaration order, on a const
// or a mutable record. Adapters walk any such list by member type:
// guard::write_fields / read_fields (checkpoint payloads), io::to_json (JSON
// reports and config files), io::from_json (config files),
// obs::journal_fields (journal lines) and core::fingerprint_fields
// (checkpoint fingerprints). A report record holds bools, unsigned
// integers, doubles, std::strings, nested records and std::vectors of
// records. A config record may also hold signed integers,
// std::vector<double>, std::arrays of records, std::optional<bool> and a
// NamedEnum, which only to_json, from_json and fingerprint_fields take.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "ranycast/core/crc32.hpp"
#include "ranycast/core/rng.hpp"

namespace ranycast::core {

/// `Self` is the record `R`, const or not: the constraint of a list.
template <typename Self, typename R>
concept RecordOf = std::same_as<std::remove_const_t<Self>, R>;

namespace detail {
struct IgnoreField {
  template <typename T>
  void operator()(std::string_view, T&) const noexcept {}
};
}  // namespace detail

/// A type with a field list (found by argument-dependent lookup).
template <typename T>
concept Record = requires(T& r) { for_each_field(r, detail::IgnoreField{}); };

template <typename T>
concept RecordVector = requires { typename T::value_type; } &&
                       std::same_as<T, std::vector<typename T::value_type>> &&
                       Record<typename T::value_type>;

/// A std::array of records: a fixed set of configured instances.
template <typename T>
concept RecordArray = requires { typename std::tuple_size<T>::type; } &&
                      std::same_as<T, std::array<typename T::value_type, std::tuple_size_v<T>>> &&
                      Record<typename T::value_type>;

/// An enum that travels by name: to_string(e) names a value, enum_values(e)
/// lists them all (both found by argument-dependent lookup).
template <typename T>
concept NamedEnum = std::is_enum_v<T> && requires(T e) {
  { to_string(e) } -> std::convertible_to<std::string_view>;
  { *enum_values(e).begin() } -> std::convertible_to<T>;
};

/// Fold a record's fields into `h` in list order, one hash_combine per
/// scalar: integers, bools and enums as u64, doubles by their bits, strings
/// by CRC-32, an optional as 0 when empty and 1 + its value otherwise, a
/// vector or array as its count then its elements, a nested record inline.
template <typename T>
std::uint64_t fingerprint_fields(std::uint64_t h, const T& v) noexcept {
  if constexpr (std::integral<T> || std::is_enum_v<T>) {
    return hash_combine(h, static_cast<std::uint64_t>(v));
  } else if constexpr (std::same_as<T, double>) {
    return hash_combine(h, std::bit_cast<std::uint64_t>(v));
  } else if constexpr (std::same_as<T, std::string>) {
    return hash_combine(h, crc32(v.data(), v.size()));
  } else if constexpr (std::same_as<T, std::optional<bool>>) {
    return hash_combine(h, v ? 1 + static_cast<std::uint64_t>(*v) : 0);
  } else if constexpr (std::same_as<T, std::vector<double>> || RecordVector<T> ||
                       RecordArray<T>) {
    h = hash_combine(h, v.size());
    for (const auto& e : v) h = fingerprint_fields(h, e);
    return h;
  } else {
    static_assert(Record<T>, "not a record field");
    for_each_field(v, [&h](std::string_view, const auto& m) { h = fingerprint_fields(h, m); });
    return h;
  }
}

}  // namespace ranycast::core
