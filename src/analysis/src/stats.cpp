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

double percentile(std::span<const double> values, double p) {
  // Cdf::quantile without the full sort: select the two order statistics
  // around the rank (the smallest of the part above the first is the
  // second) and interpolate with its exact formula, so the bits match.
  if (values.empty()) return 0.0;
  std::vector<double> v(values.begin(), values.end());
  const double q = std::clamp(p / 100.0, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), nth, v.end());
  const double a = *nth;
  const double b = hi == lo ? a : *std::min_element(nth + 1, v.end());
  return a * (1.0 - frac) + b * frac;
}

double median(std::span<const double> values) { return percentile(values, 50.0); }

}  // namespace ranycast::analysis
