#include "ranycast/analysis/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ranycast::analysis {

Cdf::Cdf(std::vector<double> samples) : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end());
}

double Cdf::min() const { return samples_.empty() ? 0.0 : samples_.front(); }
double Cdf::max() const { return samples_.empty() ? 0.0 : samples_.back(); }

double Cdf::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Cdf::fraction_at_or_below(double x) const {
  if (samples_.empty()) return 0.0;
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Cdf::series(double lo, double hi, int points) const {
  std::vector<std::pair<double, double>> out;
  if (points < 2) return out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(x, fraction_at_or_below(x));
  }
  return out;
}

namespace {

/// Where Cdf::quantile(p / 100) reads a sample of size n: the two order
/// statistics around the rank and the weight of the upper one.
struct Rank {
  std::size_t lo, hi;
  double frac;
};

Rank rank_of(std::size_t n, double p) {
  const double q = std::clamp(p / 100.0, 0.0, 1.0);
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  return Rank{lo, static_cast<std::size_t>(std::ceil(pos)), pos - static_cast<double>(lo)};
}

}  // namespace

double percentile(std::span<const double> values, double p) {
  std::vector<double> v(values.begin(), values.end());
  return percentile_pair(v, p, p).first;
}

std::pair<double, double> percentile_pair(std::span<double> values, double p_lo, double p_hi) {
  // Cdf::quantile without the full sort: select the lower order statistic
  // of a rank (the smallest of the part above it is the upper one) and
  // interpolate with its exact formula, so the bits match. Everything after
  // the first selection is at least its order statistic, so the second
  // rank's selection runs in that part only.
  if (values.empty()) return {0.0, 0.0};
  const auto at = [&](std::size_t i) { return values.begin() + static_cast<std::ptrdiff_t>(i); };
  const auto value_at = [&](const Rank& r) {
    const double a = *at(r.lo);
    const double b = r.hi == r.lo ? a : *std::min_element(at(r.lo + 1), values.end());
    return a * (1.0 - r.frac) + b * r.frac;
  };
  const Rank lo = rank_of(values.size(), p_lo);
  const Rank hi = rank_of(values.size(), p_hi);
  std::nth_element(values.begin(), at(lo.lo), values.end());
  const double first = value_at(lo);
  if (p_hi == p_lo) return {first, first};
  if (hi.lo > lo.lo) std::nth_element(at(lo.lo + 1), at(hi.lo), values.end());
  return {first, value_at(hi)};
}

double median(std::span<const double> values) { return percentile(values, 50.0); }

}  // namespace ranycast::analysis
