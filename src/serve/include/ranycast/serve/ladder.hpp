// The graceful-degradation ladder: Fresh -> Stale -> Frozen -> Reject.
//
// The ladder is the server's honest answer to "how good is what I am
// serving right now?". It is a pure function of refresher health — the age
// of the last published epoch (measured on the possibly skewed staleness
// clock) and the run of consecutive build failures — so the always-on
// differential test can predict every transition straight from the fault
// timeline:
//
//   Fresh   age <= fresh_max_age and no failure streak: the refresher is
//           keeping up; answers reflect the current world.
//   Stale   age in (fresh_max_age, stale_max_age]: the refresher is behind
//           but the bound still holds; answers are served with the stale
//           marker so clients can decide.
//   Frozen  the bound broke (age > stale_max_age) or the refresher is
//           demonstrably wedged (>= freeze_after_failures consecutive build
//           failures): answers come from the last-good snapshot — the same
//           bytes the checkpoint chain holds — with no age guarantee.
//   Reject  nothing servable at all (no snapshot ever built or restored),
//           or the last-good state outlived even the frozen allowance
//           (age > reject_after_age): queries get a structured error
//           instead of an arbitrarily wrong mapping.
//
// Transitions are recorded (and journaled durably by the server) so a
// restart reconstructs the exact ladder history; LadderState encodes and
// decodes through the guard byte codec for that reason.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ranycast/core/fields.hpp"
#include "ranycast/guard/checkpoint.hpp"

namespace ranycast::serve {

enum class LadderRung : std::uint8_t {
  Fresh = 0,
  Stale = 1,
  Frozen = 2,
  Reject = 3,
};

std::string_view to_string(LadderRung rung) noexcept;

struct LadderConfig {
  /// Age bound for Fresh, on the staleness clock (virtual ns).
  std::uint64_t fresh_max_age_ns{1'000'000'000};
  /// Age bound for Stale; beyond it the server freezes onto last-good.
  std::uint64_t stale_max_age_ns{3'000'000'000};
  /// Age beyond which even frozen answers are refused.
  std::uint64_t reject_after_age_ns{10'000'000'000};
  /// Consecutive failed builds that force Frozen regardless of age.
  std::uint32_t freeze_after_failures{3};

  bool operator==(const LadderConfig&) const = default;
};

/// LadderConfig's field list (core/fields.hpp).
template <core::RecordOf<LadderConfig> Self, typename F>
void for_each_field(Self& c, F&& f) {
  f("fresh_max_age_ns", c.fresh_max_age_ns);
  f("stale_max_age_ns", c.stale_max_age_ns);
  f("reject_after_age_ns", c.reject_after_age_ns);
  f("freeze_after_failures", c.freeze_after_failures);
}

/// The refresher-health inputs a rung is derived from.
struct LadderHealth {
  bool has_snapshot{false};          ///< anything published or restored
  std::uint64_t age_ns{0};           ///< staleness-clock age of that snapshot
  std::uint32_t consecutive_failures{0};
};

/// The pure rung rule. Deliberately a free function: the differential test
/// re-implements it independently from the fault timeline and asserts the
/// server's recorded transitions match exactly.
LadderRung ladder_rung(const LadderConfig& cfg, const LadderHealth& health) noexcept;

struct LadderTransition {
  std::uint64_t at_ns{0};  ///< virtual time the rung change was observed
  LadderRung from{LadderRung::Reject};
  LadderRung to{LadderRung::Reject};
  std::string reason;      ///< "age", "refresh_failures", "published", ...

  bool operator==(const LadderTransition&) const = default;
};

/// Rung state machine with a recorded transition history. advance() is
/// called by the server whenever health may have changed; it returns true
/// when the rung moved (the caller then journals the transition).
class Ladder {
 public:
  explicit Ladder(const LadderConfig& cfg) : cfg_(cfg) {}

  LadderRung rung() const noexcept { return rung_; }
  const LadderConfig& config() const noexcept { return cfg_; }
  const std::vector<LadderTransition>& transitions() const noexcept {
    return transitions_;
  }

  /// Re-evaluate the rung; when it changes, record (and return) the
  /// transition. `reason` labels what prompted the re-evaluation.
  bool advance(std::uint64_t now_ns, const LadderHealth& health,
               std::string_view reason, LadderTransition* out = nullptr);

  void encode(guard::ByteWriter& w) const;
  bool decode(guard::ByteReader& r);

 private:
  LadderConfig cfg_;
  LadderRung rung_{LadderRung::Reject};  ///< nothing servable before the first build
  std::vector<LadderTransition> transitions_;
};

}  // namespace ranycast::serve
