// Statistics toolkit: Welford vs closed forms, merge associativity,
// quantiles, chi-square survival values against known tables, regression on
// synthetic data, bootstrap coverage.
#include "ppsim/util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ppsim/util/check.hpp"

namespace ppsim {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sem(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // sample variance of the classic example: Σ(x-5)² = 32, /7
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleObservation) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  const std::vector<double> data = {1.5, -2.0, 0.25, 10.0, 4.5, 4.5, -7.75, 3.0};
  for (std::size_t i = 0; i < data.size(); ++i) {
    all.add(data[i]);
    (i < data.size() / 2 ? left : right).add(data[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-12);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Quantiles, SortedSampleInterpolation) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0 / 3.0), 2.0);
}

TEST(Quantiles, RejectsBadInput) {
  EXPECT_THROW(quantile_sorted({}, 0.5), CheckFailure);
  EXPECT_THROW(quantile_sorted({1.0}, -0.1), CheckFailure);
  EXPECT_THROW(quantile_sorted({1.0}, 1.1), CheckFailure);
}

TEST(Summary, MatchesComponents) {
  const Summary s = summarize({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(s.count, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
}

TEST(ChiSquare, StatisticDefinition) {
  const double stat = chi_square_statistic({12, 8}, {10.0, 10.0});
  EXPECT_DOUBLE_EQ(stat, 0.4 + 0.4);
}

TEST(ChiSquare, ZeroExpectationRequiresZeroObserved) {
  EXPECT_NO_THROW(chi_square_statistic({0, 10}, {0.0, 10.0}));
  EXPECT_THROW(chi_square_statistic({1, 9}, {0.0, 10.0}), CheckFailure);
}

TEST(ChiSquare, SurvivalFunctionKnownValues) {
  // Known critical values: P(X² >= 3.841 | dof=1) ≈ 0.05,
  // P(X² >= 18.307 | dof=10) ≈ 0.05, P(X² >= 2.706 | dof=1) ≈ 0.10.
  EXPECT_NEAR(chi_square_sf(3.841, 1), 0.05, 5e-4);
  EXPECT_NEAR(chi_square_sf(18.307, 10), 0.05, 5e-4);
  EXPECT_NEAR(chi_square_sf(2.706, 1), 0.10, 5e-4);
  EXPECT_NEAR(chi_square_sf(0.0, 5), 1.0, 1e-12);
}

TEST(ChiSquare, SurvivalMonotoneInStatistic) {
  double prev = 1.0;
  for (double stat = 0.5; stat < 30.0; stat += 0.5) {
    const double p = chi_square_sf(stat, 4);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(LinearFit, ExactLine) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {3.0, 5.0, 7.0, 9.0};  // y = 2x + 1
  const LinearFit f = linear_fit(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineRecoversSlope) {
  Xoshiro256pp rng(42);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    const double xi = static_cast<double>(i) / 10.0;
    x.push_back(xi);
    y.push_back(3.0 * xi - 2.0 + (rng.canonical() - 0.5));
  }
  const LinearFit f = linear_fit(x, y);
  EXPECT_NEAR(f.slope, 3.0, 0.05);
  EXPECT_NEAR(f.intercept, -2.0, 0.5);
  EXPECT_GT(f.r_squared, 0.99);
}

TEST(LinearFit, RejectsDegenerateInput) {
  EXPECT_THROW(linear_fit({1.0}, {1.0}), CheckFailure);
  EXPECT_THROW(linear_fit({1.0, 1.0}, {1.0, 2.0}), CheckFailure);  // constant x
  EXPECT_THROW(linear_fit({1.0, 2.0}, {1.0}), CheckFailure);       // size mismatch
}

TEST(ProportionalFit, ExactProportionality) {
  const ProportionalFit f = proportional_fit({1.0, 2.0, 4.0}, {2.5, 5.0, 10.0});
  EXPECT_NEAR(f.slope, 2.5, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(ProportionalFit, MinimizesSquaredError) {
  // For y = {1, 3} at x = {1, 2}, least squares through origin gives
  // slope = Σxy/Σx² = (1 + 6)/5 = 1.4.
  const ProportionalFit f = proportional_fit({1.0, 2.0}, {1.0, 3.0});
  EXPECT_NEAR(f.slope, 1.4, 1e-12);
}

TEST(Bootstrap, CoversTrueMeanOfTightSample) {
  Xoshiro256pp rng(7);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(10.0 + rng.canonical());
  const Interval ci = bootstrap_mean_ci(values, 0.95, 500, rng);
  EXPECT_LT(ci.lo, 10.55);
  EXPECT_GT(ci.hi, 10.45);
  EXPECT_LT(ci.hi - ci.lo, 0.2);
}

TEST(Bootstrap, RejectsBadInput) {
  Xoshiro256pp rng(7);
  EXPECT_THROW(bootstrap_mean_ci({}, 0.95, 100, rng), CheckFailure);
  EXPECT_THROW(bootstrap_mean_ci({1.0}, 1.5, 100, rng), CheckFailure);
  EXPECT_THROW(bootstrap_mean_ci({1.0}, 0.95, 0, rng), CheckFailure);
}

}  // namespace
}  // namespace ppsim
