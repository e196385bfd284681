// Statistics toolkit used by the Monte-Carlo runner, the drift validators and
// the scaling-law fits: running moments (Welford), order statistics,
// chi-square goodness of fit, least-squares regression, and bootstrap
// confidence intervals.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ppsim/util/rng.hpp"

namespace ppsim {

/// Numerically stable running mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;

  std::int64_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than two observations.
  double sem() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

  /// Merges another accumulator (parallel reduction; Chan et al. update).
  void merge(const RunningStats& other) noexcept;

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample summary over a materialised vector of observations.
struct Summary {
  std::int64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
};

/// Computes a Summary (copies and sorts internally).
Summary summarize(std::vector<double> values);

/// Linear interpolation quantile of a *sorted* sample, q in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Pearson chi-square statistic for observed counts vs expected counts.
/// Buckets with expected == 0 must have observed == 0 (checked).
double chi_square_statistic(const std::vector<std::int64_t>& observed,
                            const std::vector<double>& expected);

/// Upper-tail survival function of the chi-square distribution with `dof`
/// degrees of freedom, via the regularised incomplete gamma function.
/// Good to ~1e-10 relative accuracy for the ranges tests use.
double chi_square_sf(double statistic, int dof);

/// Ordinary least squares y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};
LinearFit linear_fit(const std::vector<double>& x, const std::vector<double>& y);

/// Least squares through the origin, y = slope * x (used for fitting
/// stabilization times against a theory curve with one free constant).
struct ProportionalFit {
  double slope = 0.0;
  double r_squared = 0.0;
};
ProportionalFit proportional_fit(const std::vector<double>& x,
                                 const std::vector<double>& y);

/// Percentile bootstrap confidence interval for the mean.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
Interval bootstrap_mean_ci(const std::vector<double>& values, double confidence,
                           int resamples, Xoshiro256pp& rng);

}  // namespace ppsim
