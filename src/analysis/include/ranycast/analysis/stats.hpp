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

/// Percentile with p in [0, 100] over an unsorted span: Cdf::quantile(p /
/// 100) bit for bit, without the full sort.
double percentile(std::span<const double> values, double p);

/// The p_lo-th and p_hi-th percentiles (0 <= p_lo <= p_hi <= 100) of
/// `values` from one selection, each bit-identical to percentile(values, p).
/// Reorders `values` in place: the upper rank is selected only in the part
/// above the lower one.
std::pair<double, double> percentile_pair(std::span<double> values, double p_lo, double p_hi);

double median(std::span<const double> values);

}  // namespace ranycast::analysis
