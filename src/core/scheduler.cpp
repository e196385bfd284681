#include "ppsim/core/scheduler.hpp"

#include <algorithm>
#include <cmath>

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

CollisionFreeRunLaw::CollisionFreeRunLaw(Count n)
    : n_(n), inv_pairs_(1.0 / (static_cast<double>(n) * static_cast<double>(n - 1))) {
  PPSIM_CHECK(n >= 2, "a collision-free run needs at least two agents");
  survival_[0].push_back(1.0);
  survival_[1].push_back(1.0);
}

Interactions CollisionFreeRunLaw::draw(Xoshiro256pp& rng, Count touched) {
  PPSIM_CHECK(touched >= 0 && touched <= n_, "touched agents must be in [0, n]");
  if (n_ - touched < 2) return 0;  // no two fresh agents left
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  const int parity = static_cast<int>(touched & 1);
  std::vector<double>& s = survival_[parity];
  const auto a = static_cast<std::size_t>(touched / 2);
  // f(T − 2) > 0, so S_p[a] > 0 and lies in the table once a draw reached
  // T − 2 or fewer; grow to it otherwise.
  const double nd = static_cast<double>(n_);
  const auto grow = [&] {
    const double t = static_cast<double>(parity) + 2.0 * static_cast<double>(s.size() - 1);
    s.push_back(s.back() * ((nd - t) * (nd - t - 1.0) * inv_pairs_));
  };
  while (s.size() <= a) grow();
  PPSIM_CHECK(s[a] >= 0x1.0p-960, "touched agents too deep for the run-length table");
  // ℓ is the largest m with S_p[a + m] > u·S_p[a]; the table ends at or
  // below that threshold. A factor of 0 (no two fresh agents left) makes
  // the products 0, so the growth always stops.
  const double threshold = u * s[a];
  while (s.back() > threshold) grow();
  // Bracket ℓ, s[lo] > threshold ≥ s[hi], galloping from a guess: with
  // P(ℓ ≥ m) ≈ exp(−(2Tm + 2m²)/n), m solves 2m² + 2Tm = −n·ln u. The
  // guess only steers the search, so ℓ does not depend on libm's rounding.
  const double t = static_cast<double>(touched);
  const double guess = 0.5 * (std::sqrt(t * t - 2.0 * nd * std::log(u)) - t);
  const std::size_t last = s.size() - 1;
  const std::size_t g =
      guess < static_cast<double>(last - a) ? a + static_cast<std::size_t>(guess) : last;
  std::size_t lo = g;
  std::size_t hi = g;
  if (s[g] > threshold) {  // g < last: up
    for (std::size_t step = 1; s[hi = std::min(g + step, last)] > threshold; step *= 2) lo = hi;
  } else {  // g > a: down
    for (std::size_t step = 1; s[lo = g - std::min(step, g - a)] <= threshold; step *= 2) hi = lo;
  }
  // Then bisect without branches: ℓ + a is in [lo, hi).
  for (std::size_t len = hi - lo; len > 1;) {
    const std::size_t half = len / 2;
    lo = s[lo + half] > threshold ? lo + half : lo;
    len -= half;
  }
  return static_cast<Interactions>(lo - a);
}

PairSampler::PairSampler(const Configuration& config) : tree_(config.counts()) {
  PPSIM_CHECK(tree_.total() >= 2, "pair sampling needs at least two agents");
}

}  // namespace ppsim
