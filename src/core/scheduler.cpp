#include "ppsim/core/scheduler.hpp"

#include "ppsim/util/check.hpp"

namespace ppsim {

PrefixSumTree::PrefixSumTree(const std::vector<std::int64_t>& weights)
    : size_(weights.size()) {
  PPSIM_CHECK(!weights.empty(), "a prefix-sum tree needs at least one category");
  for (const std::int64_t w : weights) {
    PPSIM_CHECK(w >= 0, "prefix-sum tree weights must be non-negative");
    total_ += w;
  }
  // Build bottom-up: each level's nodes group kWidth entries of the level
  // below, and their totals are the entries of the level above.
  std::vector<std::vector<Node>> levels;
  std::vector<std::int64_t> entries = weights;
  do {
    std::vector<Node> level((entries.size() + kWidth - 1) / kWidth);
    std::vector<std::int64_t> totals(level.size(), 0);
    for (std::size_t i = 0; i < level.size(); ++i) {
      std::int64_t sum = 0;
      for (std::size_t j = 0; j < kWidth; ++j) {
        const std::size_t e = i * kWidth + j;
        level[i].sums[j] = sum;
        if (e < entries.size()) sum += entries[e];
      }
      totals[i] = sum;
    }
    narrow_root_ = entries.size() <= 8;
    levels.push_back(std::move(level));
    entries = std::move(totals);
  } while (entries.size() > 1);

  for (auto level = levels.rbegin(); level != levels.rend(); ++level) {
    level_offset_.push_back(nodes_.size());
    nodes_.insert(nodes_.end(), level->begin(), level->end());
  }
}

std::int64_t PrefixSumTree::prefix_sum(std::size_t i) const noexcept {
  if (i >= size_) return total_;
  std::int64_t sum = 0;
  for (std::size_t level = level_offset_.size(); level-- > 0;) {
    sum += nodes_[level_offset_[level] + i / kWidth].sums[i % kWidth];
    i /= kWidth;
  }
  return sum;
}

Interactions collision_free_run_length(Xoshiro256pp& rng, Count n) {
  PPSIM_CHECK(n >= 2, "a collision-free run needs at least two agents");
  // Inversion: ℓ is the largest m with P(ℓ ≥ m) > u. Interaction m + 1
  // meets two fresh agents with probability (n−2m)(n−2m−1)/(n(n−1)). Eight
  // such factors are multiplied as a tree before they touch the running
  // survival, so the loop's dependency chain is one multiply per eight
  // steps and the factors vectorise.
  constexpr int kLanes = 8;
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  const double nd = static_cast<double>(n);
  const double inv_pairs = 1.0 / (nd * (nd - 1.0));
  double survival = 1.0;  // P(ℓ ≥ m)
  double free_agents = nd - 2.0;  // n − 2m
  Interactions m = 1;
  for (;;) {
    double fresh[kLanes];
    for (int i = 0; i < kLanes; ++i) {
      const double f = free_agents - 2.0 * i;
      fresh[i] = f * (f - 1.0) * inv_pairs;
    }
    const double ahead =
        survival * (((fresh[0] * fresh[1]) * (fresh[2] * fresh[3])) *
                    ((fresh[4] * fresh[5]) * (fresh[6] * fresh[7])));
    if (ahead > u) {
      survival = ahead;
      free_agents -= 2.0 * kLanes;
      m += kLanes;
      continue;
    }
    // ℓ ∈ [m, m + 7]. A factor of 0 (no two fresh agents left, at
    // m = ⌊n/2⌋) makes `ahead` 0, so the walk always stops there.
    int i = 0;
    for (double s = survival; i + 1 < kLanes; ++i) {
      s *= fresh[i];
      if (s <= u) break;
    }
    return m + i;
  }
}

PairSampler::PairSampler(const Configuration& config) : tree_(config.counts()) {
  PPSIM_CHECK(tree_.total() >= 2, "pair sampling needs at least two agents");
}

}  // namespace ppsim
