// Seeded fault injection for the serving plane, in the style of
// vfs::ScopedFaultPlan: a deterministic timeline of refresher and query
// faults the server consults at virtual-time points.
//
//   BuildFail   snapshot builds STARTED inside the window fail (the world
//               mutation is not consumed; the refresher retries next cycle)
//   BuildStall  builds started inside the window take extra_ns longer to
//               publish — the refresher wedges, ages grow, the ladder reacts
//   SlowQuery   queries arriving inside the window cost extra_ns more
//               service time, pushing them over their deadline budgets
//   ClockSkew   from at_ns onward the STALENESS clock reads skew_ns later
//               (or earlier) than virtual time — staleness accounting, not
//               scheduling, is skewed, exactly like a stepped NTP clock
//               under a frozen refresher
//
// Because every effect is a pure function of (plan, virtual time), the
// ladder's transition history is predictable from the timeline alone —
// which is what the always-on differential test asserts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ranycast::serve {

enum class ServeFaultKind : std::uint8_t {
  BuildFail = 0,
  BuildStall = 1,
  SlowQuery = 2,
  ClockSkew = 3,
};

std::string_view to_string(ServeFaultKind kind) noexcept;

struct ServeFaultEvent {
  ServeFaultKind kind{ServeFaultKind::BuildFail};
  std::uint64_t at_ns{0};        ///< window start (virtual time)
  std::uint64_t duration_ns{0};  ///< window length (ignored by ClockSkew)
  std::uint64_t extra_ns{0};     ///< BuildStall / SlowQuery penalty
  std::int64_t skew_ns{0};       ///< ClockSkew staleness-clock offset delta

  bool operator==(const ServeFaultEvent&) const = default;
};

std::string describe(const ServeFaultEvent& e);

struct FaultPlan {
  std::uint64_t seed{0};
  std::vector<ServeFaultEvent> events;

  bool empty() const noexcept { return events.empty(); }

  /// True when any BuildFail window covers `t`.
  bool build_fails(std::uint64_t t_ns) const noexcept;
  /// Sum of BuildStall penalties whose window covers `t`.
  std::uint64_t stall_extra_ns(std::uint64_t t_ns) const noexcept;
  /// Sum of SlowQuery penalties whose window covers `t`.
  std::uint64_t query_extra_ns(std::uint64_t t_ns) const noexcept;
  /// Cumulative staleness-clock skew of all ClockSkew events at or before `t`.
  std::int64_t skew_ns(std::uint64_t t_ns) const noexcept;
  /// Virtual time on the staleness clock: t + skew, clamped at zero.
  std::uint64_t staleness_now_ns(std::uint64_t t_ns) const noexcept;

  /// Mix every event into a checkpoint fingerprint (a resumed run under a
  /// different fault plan is a different experiment).
  std::uint64_t fingerprint() const noexcept;

  /// A seeded storm over [0, horizon): alternating build failures, stalls,
  /// slow-query bursts and skew steps whose density scales with `intensity`
  /// in [0, 1]. Same seed, same horizon, same intensity => same timeline.
  static FaultPlan storm(std::uint64_t seed, std::uint64_t horizon_ns, double intensity);
};

}  // namespace ranycast::serve
