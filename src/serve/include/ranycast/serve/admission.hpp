// Admission control: reject early under overload instead of timing out late.
//
// The shedder combines three deterministic checks, applied in a fixed order
// so counters and answers replay byte-identically:
//
//   1. queue depth   the server models a FIFO service queue in virtual
//                    time (queue_free_at); when the backlog already holds
//                    max_queue_depth queries, new arrivals are shed
//                    (ShedQueue) — the queue never grows without bound.
//   2. deadline      every query carries a deadline budget; when predicted
//                    latency (queue wait + service time + injected slow-query
//                    penalty) exceeds it, the query is shed immediately
//                    (ShedDeadline). This is the property the soak gates on:
//                    a SERVED query's latency never exceeds its budget, so
//                    under 2x overload p99 of served latency stays inside
//                    the budget while the shed counters absorb the excess.
//   3. token bucket  sustained rate limiting (rate_qps, burst) over integer
//                    micro-tokens — no float drift, same decisions on every
//                    replay (ShedRate).
//
// All arithmetic is integer virtual-time (ns / micro-tokens); nothing here
// reads a wall clock.
#pragma once

#include <cstdint>
#include <string_view>

#include "ranycast/core/fields.hpp"
#include "ranycast/guard/checkpoint.hpp"

namespace ranycast::serve {

struct AdmissionConfig {
  double rate_qps{2000.0};          ///< sustained token refill rate
  std::uint32_t burst{64};          ///< bucket capacity in whole tokens
  std::uint32_t max_queue_depth{32};
  std::uint64_t service_time_ns{500'000};  ///< virtual cost of one lookup

  bool operator==(const AdmissionConfig&) const = default;
};

/// AdmissionConfig's field list (core/fields.hpp).
template <core::RecordOf<AdmissionConfig> Self, typename F>
void for_each_field(Self& c, F&& f) {
  f("rate_qps", c.rate_qps);
  f("burst", c.burst);
  f("max_queue_depth", c.max_queue_depth);
  f("service_time_ns", c.service_time_ns);
}

enum class AdmitDecision : std::uint8_t {
  Admit = 0,
  ShedQueue = 1,
  ShedDeadline = 2,
  ShedRate = 3,
};

std::string_view to_string(AdmitDecision decision) noexcept;

/// Deterministic token bucket over integer micro-tokens.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_s, std::uint32_t burst);

  bool take(std::uint64_t now_ns);

  void encode(guard::ByteWriter& w) const;
  bool decode(guard::ByteReader& r);

 private:
  std::uint64_t capacity_e6_{0};     ///< micro-tokens the bucket can hold
  std::uint64_t rate_e6_per_s_{0};   ///< micro-tokens refilled per second
  std::uint64_t tokens_e6_{0};
  std::uint64_t last_refill_ns_{0};
};

/// The admission outcome for one arrival, with the latency the query will
/// observe if admitted (wait + service, virtual ns).
struct Admitted {
  AdmitDecision decision{AdmitDecision::Admit};
  std::uint64_t latency_ns{0};  ///< meaningful only when Admit
};

class Admission {
 public:
  explicit Admission(const AdmissionConfig& cfg);

  const AdmissionConfig& config() const noexcept { return cfg_; }

  /// Decide one arrival at `now_ns` with `budget_us` deadline budget and
  /// `extra_service_ns` of injected slow-query penalty. Mutates the queue
  /// model and the bucket only on Admit.
  Admitted offer(std::uint64_t now_ns, std::uint64_t budget_us,
                 std::uint64_t extra_service_ns);

  /// Virtual backlog depth at `now_ns` (whole queries ahead of a new one).
  std::uint32_t queue_depth(std::uint64_t now_ns) const noexcept;

  void encode(guard::ByteWriter& w) const;
  bool decode(guard::ByteReader& r);

 private:
  AdmissionConfig cfg_;
  TokenBucket bucket_;
  std::uint64_t queue_free_at_ns_{0};  ///< when the modeled FIFO drains
};

}  // namespace ranycast::serve
