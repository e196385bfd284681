// Walker/Vose alias method: O(1) sampling from a fixed discrete distribution
// after O(S) preprocessing.
//
// Used where the distribution does not change between draws (workload
// generators, initial-opinion assignment, the round engine's pair law).
// The sequential engine's PairSampler uses a prefix-sum tree
// instead (core/scheduler.hpp) because its distribution mutates on every
// step.
#pragma once

#include <cstdint>
#include <vector>

#include "ppsim/util/rng.hpp"

namespace ppsim {

class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table from non-negative weights (need not be normalised).
  /// Throws CheckFailure if weights are empty, contain a negative entry, or
  /// sum to zero.
  explicit AliasTable(const std::vector<double>& weights);

  /// Draws a category index with probability weight[i] / sum(weights).
  std::size_t sample(Xoshiro256pp& rng) const noexcept {
    const std::size_t i = static_cast<std::size_t>(rng.bounded(prob_.size()));
    return rng.canonical() < prob_[i] ? i : alias_[i];
  }

  std::size_t size() const noexcept { return prob_.size(); }

  /// Exact probability assigned to category i (for testing).
  double probability(std::size_t i) const;

 private:
  std::vector<double> prob_;        // acceptance threshold per column
  std::vector<std::size_t> alias_;  // fallback category per column
  std::vector<double> normalized_;  // original weights / sum, kept for probability()
};

}  // namespace ppsim
