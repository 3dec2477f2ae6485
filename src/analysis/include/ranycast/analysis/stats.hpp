// Empirical distribution utilities (CDFs, percentiles) used by every
// experiment harness.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace ranycast::analysis {

/// Empirical CDF over a sample set.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples);

  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  double min() const;
  double max() const;
  double mean() const;

  /// q in [0, 1]; linear interpolation between order statistics.
  double quantile(double q) const;

  /// Fraction of samples strictly below or equal to x.
  double fraction_at_or_below(double x) const;

  /// Sampled (x, F(x)) series for plotting/printing.
  std::vector<std::pair<double, double>> series(double lo, double hi, int points) const;

 private:
  std::vector<double> samples_;  // sorted ascending
};

/// Percentile with p in [0, 100] over an unsorted span.
double percentile(std::span<const double> values, double p);

double median(std::span<const double> values);

}  // namespace ranycast::analysis
