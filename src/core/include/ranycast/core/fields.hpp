// One field list per report record.
//
// A report record states its schema once, next to its struct:
//
//   template <core::RecordOf<StepReport> Self, typename F>
//   void for_each_field(Self& r, F&& f) {
//     f("index", r.index);
//     f("event", r.event);
//     ...
//   }
//
// It calls f(name, member) for each field in declaration order, on a const
// or a mutable record. Three adapters walk any such list by member type:
// guard::write_fields / read_fields (checkpoint payloads), io::to_json (the
// JSON reports) and obs::journal_fields (journal lines). A member is a bool,
// an unsigned integer, a double, a std::string, a nested record or a
// std::vector of records; the adapters support nothing else.
#pragma once

#include <concepts>
#include <string_view>
#include <type_traits>
#include <vector>

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

}  // namespace ranycast::core
