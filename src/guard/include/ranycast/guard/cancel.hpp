// Cooperative cancellation and deadlines for supervised runs.
//
// A CancellationToken wraps the exec::CancelFlag the thread pool polls
// between items with the *reason* the stop was requested (user cancel,
// deadline, watchdog stall), so a truncated run can report why it stopped.
// A Deadline is a monotonic-clock budget; it is enforced both inline (step
// boundaries check expired()) and asynchronously (the Supervisor's watchdog
// requests cancellation when it expires mid-step, which running solves and
// fan-outs acknowledge at their next chunk boundary).
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <string_view>

#include "ranycast/exec/pool.hpp"

namespace ranycast::guard {

enum class StopReason : int {
  None = 0,
  Cancelled = 1,
  DeadlineExpired = 2,
  Stalled = 3,
};

constexpr std::string_view to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::Cancelled: return "cancelled";
    case StopReason::DeadlineExpired: return "deadline expired";
    case StopReason::Stalled: return "stalled";
    case StopReason::None: break;
  }
  return "none";
}

class Deadline {
 public:
  /// No budget: never expires.
  Deadline() = default;

  static Deadline never() noexcept { return Deadline{}; }
  static Deadline in_seconds(double seconds) noexcept {
    Deadline d;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }

  bool set() const noexcept { return at_.has_value(); }
  bool expired() const noexcept { return at_ && std::chrono::steady_clock::now() >= *at_; }

 private:
  std::optional<std::chrono::steady_clock::time_point> at_;
};

/// A cancel flag plus the first stop reason that requested it. The flag is
/// what parallel_for polls; the reason is what the run reports.
class CancellationToken {
 public:
  exec::CancelFlag& flag() noexcept { return flag_; }
  const exec::CancelFlag& flag() const noexcept { return flag_; }

  /// Request a stop. The first reason wins; later requests are ignored.
  void request(StopReason why) noexcept {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(why),
                                    std::memory_order_acq_rel);
    flag_.request();
  }

  bool stop_requested() const noexcept { return flag_.requested(); }
  StopReason reason() const noexcept {
    return static_cast<StopReason>(reason_.load(std::memory_order_acquire));
  }

 private:
  exec::CancelFlag flag_;
  std::atomic<int> reason_{0};
};

}  // namespace ranycast::guard
