#include "ppsim/analysis/drift.hpp"

#include <numeric>

#include "ppsim/util/check.hpp"

namespace ppsim {

UsdDrift::UsdDrift(std::vector<Count> counts) : counts_(std::move(counts)) {
  PPSIM_CHECK(counts_.size() >= 2, "need the undecided count plus at least one opinion");
  for (const Count c : counts_) PPSIM_CHECK(c >= 0, "counts must be non-negative");
  n_ = std::accumulate(counts_.begin(), counts_.end(), Count{0});
  PPSIM_CHECK(n_ >= 2, "population must have at least two agents");
}

Count UsdDrift::x(Opinion i) const {
  PPSIM_CHECK(i < k(), "opinion out of range");
  return counts_[i + 1];
}

double UsdDrift::prob_undecided_decrease() const noexcept {
  const auto uu = static_cast<double>(counts_[0]);
  const auto nn = static_cast<double>(n_);
  return 2.0 * uu * (nn - uu) / pair_norm();
}

double UsdDrift::prob_undecided_increase() const noexcept {
  const auto uu = static_cast<double>(counts_[0]);
  const auto nn = static_cast<double>(n_);
  double sum = 0.0;
  for (std::size_t i = 1; i < counts_.size(); ++i) {
    const auto xi = static_cast<double>(counts_[i]);
    sum += xi * (nn - uu - xi);
  }
  return sum / pair_norm();
}

double UsdDrift::expected_undecided_change() const noexcept {
  return 2.0 * prob_undecided_increase() - prob_undecided_decrease();
}

double UsdDrift::prob_opinion_up(Opinion i) const {
  const auto xi = static_cast<double>(x(i));
  const auto uu = static_cast<double>(counts_[0]);
  return 2.0 * xi * uu / pair_norm();
}

double UsdDrift::prob_opinion_down(Opinion i) const {
  const auto xi = static_cast<double>(x(i));
  const auto nn = static_cast<double>(n_);
  const auto uu = static_cast<double>(counts_[0]);
  return 2.0 * xi * (nn - uu - xi) / pair_norm();
}

double UsdDrift::expected_opinion_change(Opinion i) const {
  const auto xi = static_cast<double>(x(i));
  const auto nn = static_cast<double>(n_);
  const auto uu = static_cast<double>(counts_[0]);
  return 2.0 * xi * (2.0 * uu - nn + xi) / pair_norm();
}

double UsdDrift::prob_delta_up(Opinion i, Opinion j) const {
  const auto xi = static_cast<double>(x(i));
  const auto xj = static_cast<double>(x(j));
  const auto nn = static_cast<double>(n_);
  const auto uu = static_cast<double>(counts_[0]);
  // x_i adopts an undecided agent, or x_j clashes with a third opinion.
  return (2.0 * xi * uu + 2.0 * xj * (nn - uu - xi - xj)) / pair_norm();
}

double UsdDrift::prob_delta_down(Opinion i, Opinion j) const {
  return prob_delta_up(j, i);
}

double UsdDrift::expected_delta_change(Opinion i, Opinion j) const {
  const auto xi = static_cast<double>(x(i));
  const auto xj = static_cast<double>(x(j));
  const auto nn = static_cast<double>(n_);
  const auto uu = static_cast<double>(counts_[0]);
  return 2.0 * (xi - xj) * (2.0 * uu - nn + xi + xj) / pair_norm();
}

double UsdDrift::opinion_threshold(Opinion i) const {
  return (static_cast<double>(n_) - static_cast<double>(x(i))) / 2.0;
}

}  // namespace ppsim
