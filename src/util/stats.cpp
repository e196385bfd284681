#include "ppsim/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "ppsim/util/check.hpp"

namespace ppsim {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::sem() const noexcept {
  return count_ > 1 ? stddev() / std::sqrt(static_cast<double>(count_)) : 0.0;
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  PPSIM_CHECK(!sorted.empty(), "quantile of empty sample");
  PPSIM_CHECK(q >= 0.0 && q <= 1.0, "quantile level must be in [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

Summary summarize(std::vector<double> values) {
  PPSIM_CHECK(!values.empty(), "summarize needs at least one observation");
  std::sort(values.begin(), values.end());
  RunningStats rs;
  for (const double v : values) rs.add(v);
  Summary s;
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = values.front();
  s.p25 = quantile_sorted(values, 0.25);
  s.median = quantile_sorted(values, 0.50);
  s.p75 = quantile_sorted(values, 0.75);
  s.max = values.back();
  return s;
}

double chi_square_statistic(const std::vector<std::int64_t>& observed,
                            const std::vector<double>& expected) {
  PPSIM_CHECK(observed.size() == expected.size(), "bucket count mismatch");
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] == 0.0) {
      PPSIM_CHECK(observed[i] == 0, "observed mass in zero-expectation bucket");
      continue;
    }
    const double diff = static_cast<double>(observed[i]) - expected[i];
    stat += diff * diff / expected[i];
  }
  return stat;
}

namespace {

/// Regularised lower incomplete gamma P(a, x), series + continued fraction
/// (Numerical Recipes style; both branches converge fast for our use).
double gamma_p(double a, double x) {
  PPSIM_CHECK(a > 0.0 && x >= 0.0, "gamma_p domain");
  if (x == 0.0) return 0.0;
  const double lg = std::lgamma(a);
  if (x < a + 1.0) {
    // Series representation.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int i = 0; i < 500; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 1e-15) break;
    }
    return sum * std::exp(-x + a * std::log(x) - lg);
  }
  // Continued fraction for Q(a, x); P = 1 - Q.
  const double tiny = std::numeric_limits<double>::min() / 1e-30;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  const double q = std::exp(-x + a * std::log(x) - lg) * h;
  return 1.0 - q;
}

}  // namespace

double chi_square_sf(double statistic, int dof) {
  PPSIM_CHECK(dof > 0, "chi-square needs positive degrees of freedom");
  PPSIM_CHECK(statistic >= 0.0, "chi-square statistic must be non-negative");
  return 1.0 - gamma_p(static_cast<double>(dof) / 2.0, statistic / 2.0);
}

LinearFit linear_fit(const std::vector<double>& x, const std::vector<double>& y) {
  PPSIM_CHECK(x.size() == y.size(), "x/y size mismatch");
  PPSIM_CHECK(x.size() >= 2, "linear fit needs at least two points");
  const auto n = static_cast<double>(x.size());
  const double mx = std::accumulate(x.begin(), x.end(), 0.0) / n;
  const double my = std::accumulate(y.begin(), y.end(), 0.0) / n;
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  PPSIM_CHECK(sxx > 0.0, "linear fit needs varying x");
  LinearFit f;
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  f.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return f;
}

ProportionalFit proportional_fit(const std::vector<double>& x,
                                 const std::vector<double>& y) {
  PPSIM_CHECK(x.size() == y.size(), "x/y size mismatch");
  PPSIM_CHECK(!x.empty(), "proportional fit needs at least one point");
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  PPSIM_CHECK(sxx > 0.0, "proportional fit needs nonzero x");
  ProportionalFit f;
  f.slope = sxy / sxx;
  // R^2 about the mean of y, consistent with linear_fit.
  const auto n = static_cast<double>(y.size());
  const double my = std::accumulate(y.begin(), y.end(), 0.0) / n;
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - f.slope * x[i];
    ss_res += r * r;
    ss_tot += (y[i] - my) * (y[i] - my);
  }
  f.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return f;
}

Interval bootstrap_mean_ci(const std::vector<double>& values, double confidence,
                           int resamples, Xoshiro256pp& rng) {
  PPSIM_CHECK(!values.empty(), "bootstrap of empty sample");
  PPSIM_CHECK(confidence > 0.0 && confidence < 1.0, "confidence must be in (0,1)");
  PPSIM_CHECK(resamples > 0, "need at least one resample");
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    double sum = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      sum += values[static_cast<std::size_t>(rng.bounded(values.size()))];
    }
    means.push_back(sum / static_cast<double>(values.size()));
  }
  std::sort(means.begin(), means.end());
  const double alpha = (1.0 - confidence) / 2.0;
  return Interval{quantile_sorted(means, alpha), quantile_sorted(means, 1.0 - alpha)};
}

}  // namespace ppsim
