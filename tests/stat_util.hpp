// Shared test helpers: the two-sample Kolmogorov–Smirnov distance (used by
// collapsed_simulator_test) and run_cell, the one-cell sweep the protocol
// tests run their Monte-Carlo trials through.
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
