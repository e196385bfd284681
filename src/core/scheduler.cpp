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

PairSampler::PairSampler(const Configuration& config) : tree_(config.counts()) {
  PPSIM_CHECK(tree_.total() >= 2, "pair sampling needs at least two agents");
}

}  // namespace ppsim
