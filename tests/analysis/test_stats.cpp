#include "ranycast/analysis/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "ranycast/core/rng.hpp"

namespace ranycast::analysis {
namespace {

TEST(Cdf, EmptyIsSafe) {
  const Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(10.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 0.0);
}

TEST(Cdf, SingleSample) {
  const Cdf cdf{{7.0}};
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 7.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(6.9), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(7.0), 1.0);
}

TEST(Cdf, QuantilesInterpolate) {
  const Cdf cdf{{0.0, 10.0}};
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 2.5);
}

TEST(Cdf, MinMaxMean) {
  const Cdf cdf{{3.0, 1.0, 2.0}};
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 2.0);
}

TEST(Cdf, FractionAtOrBelowCountsTies) {
  const Cdf cdf{{1.0, 2.0, 2.0, 3.0}};
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1.5), 0.25);
}

TEST(Cdf, SeriesIsMonotone) {
  Rng rng{5};
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(rng.normal(100.0, 20.0));
  const Cdf cdf{std::move(samples)};
  const auto series = cdf.series(0.0, 200.0, 50);
  ASSERT_EQ(series.size(), 50u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].second, series[i - 1].second);
    EXPECT_GT(series[i].first, series[i - 1].first);
  }
  EXPECT_NEAR(series.back().second, 1.0, 0.01);
}

TEST(Cdf, QuantileClampsOutOfRange) {
  const Cdf cdf{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(cdf.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.5), 2.0);
}

TEST(Percentile, MatchesKnownValues) {
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 20.0);
}

TEST(Percentile, UnsortedInput) {
  const std::vector<double> v{50, 10, 40, 30, 20};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 30.0);
}

/// percentile() selects the two order statistics around the rank instead
/// of sorting; its result must carry the exact bits of the sorted
/// interpolation, Cdf::quantile, ties and infinities included.
TEST(Percentile, BitIdenticalToSortedQuantile) {
  Rng rng{0x9E7C};
  std::vector<std::size_t> sizes{1, 2, 3, 4, 5, 10, 11, 100, 999, 1000};
  for (int extra = 0; extra < 20; ++extra) sizes.push_back(1 + rng.below(1000));
  std::size_t cases = 0;
  std::size_t pairs = 0;
  for (const std::size_t n : sizes) {
    // Few distinct values (many ties), or continuous values; some infinite.
    const bool tied = rng.chance(0.5);
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) {
      double x = tied ? static_cast<double>(rng.below(7)) * 2.5 : rng.exponential(30.0);
      if (rng.chance(0.05)) x = std::numeric_limits<double>::infinity();
      v.push_back(x);
    }
    const std::vector<double> ranks{0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0};
    const Cdf cdf{v};
    for (const double p : ranks) {
      const double got = percentile(v, p);
      const double want = cdf.quantile(p / 100.0);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "n=" << n << " p=" << p << " got " << got << " want " << want;
      ++cases;
    }
    // The two-rank helper, for every pair of those ranks (equal ones too),
    // each from its own copy since it reorders in place.
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      for (std::size_t j = i; j < ranks.size(); ++j) {
        std::vector<double> buffer = v;
        const auto [lo, hi] = percentile_pair(buffer, ranks[i], ranks[j]);
        const double want_lo = cdf.quantile(ranks[i] / 100.0);
        const double want_hi = cdf.quantile(ranks[j] / 100.0);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(lo), std::bit_cast<std::uint64_t>(want_lo))
            << "n=" << n << " p=" << ranks[i] << " with " << ranks[j];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(hi), std::bit_cast<std::uint64_t>(want_hi))
            << "n=" << n << " p=" << ranks[j] << " with " << ranks[i];
        ++pairs;
      }
    }
  }
  EXPECT_EQ(cases, sizes.size() * 7);
  EXPECT_EQ(pairs, sizes.size() * 28);
  std::vector<double> none;
  EXPECT_EQ(percentile_pair(none, 50, 90), std::make_pair(0.0, 0.0));
}

TEST(Median, EvenCount) {
  const std::vector<double> v{1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(v), 2.0);
}

class QuantileMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileMonotonicity, QuantileIsNondecreasingInQ) {
  Rng rng{GetParam()};
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(rng.exponential(30.0));
  const Cdf cdf{std::move(samples)};
  double prev = cdf.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = cdf.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotonicity, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ranycast::analysis
