// Shared distribution-test helpers for the statistical pins: chi-square
// goodness-of-fit p-values (wrapping util/stats chi_square_statistic /
// chi_square_sf with the conventional buckets−1 degrees of freedom) and the
// two-sample Kolmogorov–Smirnov distance. Used by collapsed_simulator_test,
// kernel_distribution_test and faults_test. Also run_cell, the one-cell
// sweep the protocol tests run their Monte-Carlo trials through.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ppsim/core/sweep.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim::testutil {

/// Goodness-of-fit p-value of `observed` against `expected` with the
/// conventional observed.size() − 1 degrees of freedom. Reject small values
/// (a correct sampler fails p > 1e-6 with probability < 1e-6).
inline double chi_square_pvalue(const std::vector<std::int64_t>& observed,
                                const std::vector<double>& expected) {
  const double stat = chi_square_statistic(observed, expected);
  return chi_square_sf(stat, static_cast<int>(observed.size()) - 1);
}

/// Expected histogram of `total` events uniform over `buckets` buckets.
inline std::vector<double> uniform_expectation(std::size_t buckets,
                                               std::int64_t total) {
  return std::vector<double>(
      buckets, static_cast<double>(total) / static_cast<double>(buckets));
}

/// Two-sample Kolmogorov–Smirnov distance sup_x |F_a(x) − F_b(x)|.
inline double ks_distance(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double d = 0.0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia] <= b[ib]) {
      ++ia;
    } else {
      ++ib;
    }
    d = std::max(d, std::abs(static_cast<double>(ia) / na -
                             static_cast<double>(ib) / nb));
  }
  return d;
}

/// Two-sample KS critical distance c(α)·sqrt((na+nb)/(na·nb)); c(0.001) ≈
/// 1.949 — the constant used by the kernel-distribution pins.
inline double ks_two_sample_critical(std::size_t na, std::size_t nb,
                                     double c_alpha = 1.949) {
  const double a = static_cast<double>(na);
  const double b = static_cast<double>(nb);
  return c_alpha * std::sqrt((a + b) / (a * b));
}

/// Runs `trials` trials of `fn` as a one-cell sweep on all hardware threads.
/// Trial t calls fn with the scalar seed of jump stream t of `base_seed`;
/// the cell holds each outcome as consensus_metrics (stabilized, winner,
/// majority_win, parallel_time, ...), in trial order.
inline SweepCellResult run_cell(
    std::size_t trials, std::uint64_t base_seed,
    const std::function<TrialResult(std::uint64_t seed)>& fn) {
  SweepSpec spec;
  spec.name = "test_cell";
  spec.cells.emplace_back();
  spec.trials = trials;
  spec.base_seed = base_seed;
  spec.threads = 0;
  SweepResult result = SweepRunner(std::move(spec)).run(
      [&](const SweepTrial& t) { return consensus_metrics(fn(t.seed)); });
  return std::move(result.cells.front());
}

}  // namespace ppsim::testutil
