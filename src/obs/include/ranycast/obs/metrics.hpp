// Process-wide observability: a runtime switch, named counters, gauges and
// fixed-bucket latency histograms with quantile extraction.
//
// The switch is read once from the RANYCAST_OBS environment variable (unset,
// "", "0", "false" or "off" mean disabled) and can be overridden with
// set_enabled() (e.g. via LabConfig::observability). Every recording
// operation early-returns on a relaxed atomic load when disabled, so
// instrumentation left in hot paths costs one predictable branch.
//
// Registry entries are created on first use and are never erased — reset()
// zeroes values in place — so instrumentation sites may cache the returned
// references (typically in a function-local static) and increment lock-free
// forever after.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ranycast::obs {

/// Whether instrumentation records anything (one relaxed atomic load).
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Default bucket upper bounds for wall-time histograms, in microseconds
/// (1 µs .. 10 s, roughly logarithmic).
inline constexpr double kLatencyUsBounds[] = {
    1,     2,     5,     10,    20,    50,    100,   200,   500,   1e3,  2e3,
    5e3,   1e4,   2e4,   5e4,   1e5,   2e5,   5e5,   1e6,   2e6,   5e6,  1e7};

/// Default bucket upper bounds for simulated RTT histograms, in milliseconds.
inline constexpr double kRttMsBounds[] = {1,  2,  5,  10, 20,  30,  50,  75,
                                          100, 150, 200, 300, 400, 600, 1000};

/// Fixed-bucket histogram. Buckets are (prev_bound, bound]; one overflow
/// bucket past the last bound. Recording is a binary search plus relaxed
/// atomic increments; quantiles interpolate linearly inside a bucket and are
/// clamped to the observed [min, max].
class Histogram {
 public:
  struct Snapshot {
    std::uint64_t count{0};
    double sum{0.0};
    double min{0.0};
    double max{0.0};
    double p50{0.0};
    double p90{0.0};
    double p99{0.0};
    std::vector<double> bounds;          ///< upper bound per finite bucket
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
  };

  explicit Histogram(std::span<const double> upper_bounds);

  void record(double x) noexcept;
  /// record() of every sample in order, with one atomic update per field
  /// (per non-empty bucket): with no other thread recording into this
  /// histogram meanwhile, every field ends bit-equal to the per-sample
  /// records', the sum included (it is folded in sample order).
  void record_batch(std::span<const double> xs);
  double quantile(double q) const noexcept;
  Snapshot snapshot() const;
  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// The process-wide metric namespace. Thread-safe; lookups take a mutex,
/// returned references never invalidate.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds = kLatencyUsBounds);

  /// Free-form string annotation attached to reports (e.g. which bench
  /// preset ran). Gated on enabled() like every other recording call.
  void set_label(std::string_view name, std::string value);

  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, Histogram::Snapshot> histograms() const;
  std::map<std::string, std::string> labels() const;

  /// Zero every value in place. Existing Counter/Gauge/Histogram references
  /// stay valid; labels are cleared.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> labels_;
};

}  // namespace ranycast::obs
