// Exact one-step conditional expectations for USD — the quantities the
// paper's drift analysis is built on (Section 3).
//
// Conditioned on the configuration x = (x_1, ..., x_k, u) after interaction
// t, the next interaction draws an ordered pair of distinct agents uniformly
// at random, so (writing N2 = n(n-1)):
//
//   P[u -> u-1]      = 2 u (n-u) / N2                      (adopt)
//   P[u -> u+2]      = Σ_i x_i (n-u-x_i) / N2              (clash)
//   E[Δu]            = 2·P[u+2] - P[u-1]
//   P[x_i -> x_i+1]  = 2 x_i u / N2
//   P[x_i -> x_i-1]  = 2 x_i (n-u-x_i) / N2
//   E[Δx_i]          = 2 x_i (2u - n + x_i) / N2
//   E[Δ(x_i - x_j)]  = 2 (x_i - x_j)(2u - n + x_i + x_j) / N2
//
// Unlike the paper's Lemma 3.1 derivation we keep the exact 1/(n-1) factors
// (no O(1/n) slack): tests compare these numbers against Monte-Carlo
// one-step averages at 4-5 significant digits.
//
// Two derived quantities recur throughout the proof:
//   * the opinion threshold u_i = (n - x_i)/2 — x_i drifts up iff u > u_i
//     ("the larger x_i, the smaller the threshold");
//   * the settling point n/2 - n/(4k) that u(t) hovers below (Lemma 3.1,
//     Figure 1's reference line).
#pragma once

#include <vector>

#include "ppsim/core/types.hpp"

namespace ppsim {

class UsdDrift {
 public:
  /// USD counts layout (UndecidedStateDynamics): counts[0] = u,
  /// counts[i+1] = x_{i+1}. Population must be >= 2.
  explicit UsdDrift(std::vector<Count> counts);

  Count n() const noexcept { return n_; }
  Count u() const noexcept { return counts_[0]; }
  Count x(Opinion i) const;
  std::size_t k() const noexcept { return counts_.size() - 1; }

  /// P[u(t+1) = u(t) - 1 | x]: a decided agent meets an undecided one.
  double prob_undecided_decrease() const noexcept;
  /// P[u(t+1) = u(t) + 2 | x]: two distinct opinions clash.
  double prob_undecided_increase() const noexcept;
  /// E[u(t+1) - u(t) | x].
  double expected_undecided_change() const noexcept;

  double prob_opinion_up(Opinion i) const;
  double prob_opinion_down(Opinion i) const;
  /// E[x_i(t+1) - x_i(t) | x] = 2 x_i (2u - n + x_i) / (n(n-1)).
  double expected_opinion_change(Opinion i) const;

  /// P[Δ_ij increases by one | x] (paper, proof of Lemma 3.4).
  double prob_delta_up(Opinion i, Opinion j) const;
  double prob_delta_down(Opinion i, Opinion j) const;
  /// E[Δ_ij(t+1) - Δ_ij(t) | x] = 2 Δ_ij (2u - n + x_i + x_j) / (n(n-1)).
  double expected_delta_change(Opinion i, Opinion j) const;

  /// The threshold u_i = (n - x_i) / 2: E[Δx_i] > 0 iff u > u_i.
  double opinion_threshold(Opinion i) const;

 private:
  double pair_norm() const noexcept {  // n(n-1)
    return static_cast<double>(n_) * static_cast<double>(n_ - 1);
  }

  std::vector<Count> counts_;
  Count n_ = 0;
};

}  // namespace ppsim
