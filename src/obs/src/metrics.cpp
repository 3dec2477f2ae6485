#include "ranycast/obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <limits>

#include "ranycast/core/strings.hpp"

namespace ranycast::obs {

namespace {

std::atomic<bool>& enabled_flag() noexcept {
  // Lazy so the env var is honoured no matter when the first instrumented
  // call happens (including from static initializers in other TUs).
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("RANYCAST_OBS");
    return env != nullptr && strings::truthy(env);
  }()};
  return flag;
}

/// Lock-free running min/max over doubles.
void atomic_min(std::atomic<double>& target, double x) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (x < cur && !target.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double x) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (x > cur && !target.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool enabled() noexcept { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept { enabled_flag().store(on, std::memory_order_relaxed); }

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()),
      buckets_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void Histogram::record(double x) noexcept {
  if (!enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

void Histogram::record_batch(std::span<const double> xs) {
  if (!enabled() || xs.empty()) return;
  // A batch often repeats a few values (one queue delay per site), so each
  // distinct value's bucket is searched once and remembered by the value's
  // bits: open addressing over a fixed table that stops taking new values
  // at half full (later new values are searched every time).
  struct Memo {
    std::uint64_t bits;
    std::uint32_t bucket;
    bool used;
  };
  constexpr std::size_t kMemoBits = 9;
  constexpr std::size_t kMemoSlots = std::size_t{1} << kMemoBits;
  std::array<Memo, kMemoSlots> memo{};
  std::size_t remembered = 0;
  std::vector<std::uint64_t> tally(buckets_.size(), 0);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const double x : xs) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    std::size_t slot = (bits * 0x9E3779B97F4A7C15ULL) >> (64 - kMemoBits);
    while (memo[slot].used && memo[slot].bits != bits) slot = (slot + 1) & (kMemoSlots - 1);
    std::uint32_t bucket = memo[slot].bucket;
    if (!memo[slot].used) {
      bucket = static_cast<std::uint32_t>(
          std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
      if (remembered < kMemoSlots / 2) {
        memo[slot] = Memo{bits, bucket, true};
        ++remembered;
      }
    }
    ++tally[bucket];
    if (x < lo) lo = x;
    if (x > hi) hi = x;
  }
  for (std::size_t b = 0; b < tally.size(); ++b) {
    if (tally[b] != 0) buckets_[b].fetch_add(tally[b], std::memory_order_relaxed);
  }
  count_.fetch_add(xs.size(), std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  for (;;) {
    double next = sum;
    for (const double x : xs) next += x;
    if (sum_.compare_exchange_weak(sum, next, std::memory_order_relaxed)) break;
  }
  atomic_min(min_, lo);
  atomic_max(max_, hi);
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t total = count_.load(std::memory_order_relaxed);
  if (total == 0) return 0.0;
  const double lo = min_.load(std::memory_order_relaxed);
  const double hi = max_.load(std::memory_order_relaxed);
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const auto in_bucket =
        static_cast<double>(buckets_[b].load(std::memory_order_relaxed));
    if (cum + in_bucket >= target && in_bucket > 0) {
      // Linear interpolation inside the bucket; the overflow bucket and the
      // first bucket borrow the observed max/min as their missing edge.
      const double lower = b == 0 ? lo : bounds_[b - 1];
      const double upper = b < bounds_.size() ? bounds_[b] : hi;
      const double fraction = (target - cum) / in_bucket;
      return std::clamp(lower + fraction * (upper - lower), lo, hi);
    }
    cum += in_bucket;
  }
  return hi;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  s.max = s.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p99 = quantile(0.99);
  s.bounds = bounds_;
  s.buckets.reserve(buckets_.size());
  for (const auto& b : buckets_) s.buckets.push_back(b.load(std::memory_order_relaxed));
  return s;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>(bounds))
              .first->second;
}

void MetricsRegistry::set_label(std::string_view name, std::string value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  labels_[std::string(name)] = std::move(value);
}

std::map<std::string, std::uint64_t> MetricsRegistry::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  return out;
}

std::map<std::string, Histogram::Snapshot> MetricsRegistry::histograms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, Histogram::Snapshot> out;
  for (const auto& [name, h] : histograms_) out[name] = h->snapshot();
  return out;
}

std::map<std::string, std::string> MetricsRegistry::labels() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {labels_.begin(), labels_.end()};
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  labels_.clear();
}

}  // namespace ranycast::obs
