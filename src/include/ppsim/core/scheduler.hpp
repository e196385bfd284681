// The uniform random scheduler on the clique.
//
// At each discrete time step the scheduler picks an ordered pair of two
// *distinct* agents uniformly at random (Section 1.1 of the paper: "two nodes
// are selected for interaction, chosen uniformly at random (without
// replacement)"). With anonymous agents a configuration is just a count
// vector, so pair selection reduces to sampling the initiator's state with
// probability count(s)/n and the responder's state from the remaining n-1
// agents.
//
// Both draws are inverse-CDF lookups in a PrefixSumTree: a B-ary tree
// (B = 32) of exclusive prefix sums over the counts. A lookup is one
// branch-free B-wide count per level and a move is one B-wide masked add per
// level, so both cost O(B·log_B S) and are plain loops the compiler
// vectorises. At S ≤ 32 (USD up to k = 31) the tree is a single node. A
// root with at most 8 children (S ≤ 8 in a one-node tree) is scanned and
// updated only 8 wide: scanning 32 slots for 3 live states made the k = 2
// step slower than the binary-indexed tree this replaced. B = 32 was chosen
// by measurement (a loop of one sample plus two moves, one run per point, on
// an AVX-512 Xeon with gcc -O3 -march=native): at S = 28, 117 / 27 / 41 ns
// for B = 16 / 32 / 64, and at S = 40 001, 257 / 126 / 167 ns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {

/// Inverse-CDF lookup over non-negative integer weights (the per-state
/// counts), with unit moves of weight between categories.
class PrefixSumTree {
 public:
  static constexpr std::size_t kWidth = 32;

  /// Builds the tree over `weights`. Requires at least one category and
  /// non-negative weights.
  explicit PrefixSumTree(const std::vector<std::int64_t>& weights);

  std::size_t size() const noexcept { return size_; }
  std::int64_t total() const noexcept { return total_; }

  /// Sum of the weights of categories [0, i), for i <= size().
  std::int64_t prefix_sum(std::size_t i) const noexcept;

  /// The category c with prefix_sum(c) <= target < prefix_sum(c + 1); never a
  /// zero-weight one. Precondition: 0 <= target < total().
  std::size_t find(std::int64_t target) const noexcept {
    return narrow_root_ ? find_from<8>(target) : find_from<kWidth>(target);
  }

  /// Moves one unit of weight from category `from` to `to`. The weight of
  /// `from` must be positive (unchecked: hot path).
  void move(std::size_t from, std::size_t to) noexcept {
    if (narrow_root_) {
      move_from<8>(from, to);
    } else {
      move_from<kWidth>(from, to);
    }
  }

 private:
  // sums[j] is the weight of children [0, j) of this node; sums[0] = 0.
  // Slots past the last child are zero-weight children: they hold the node's
  // total, which a lookup's target (relative to the node) never reaches.
  struct alignas(64) Node {
    std::int64_t sums[kWidth];
  };

  template <std::size_t RootWidth>
  std::size_t find_from(std::int64_t target) const noexcept {
    std::size_t node = 0;
    std::size_t child = scan<RootWidth>(nodes_[0].sums, target);
    for (std::size_t level = 1; level < level_offset_.size(); ++level) {
      node = node * kWidth + child;
      child = scan<kWidth>(nodes_[level_offset_[level] + node].sums, target);
    }
    return node * kWidth + child;
  }

  template <std::size_t RootWidth>
  void move_from(std::size_t from, std::size_t to) noexcept {
    for (std::size_t level = level_offset_.size() - 1; level > 0; --level) {
      const std::size_t node_from = from / kWidth;
      const std::size_t node_to = to / kWidth;
      const std::size_t child_from = from % kWidth;
      const std::size_t child_to = to % kWidth;
      std::int64_t* sums = nodes_[level_offset_[level] + node_from].sums;
      if (node_from == node_to) {
        // Both children share this node, so the sums above it hold.
        shift<kWidth>(sums, child_from, child_to);
        return;
      }
      std::int64_t* to_sums = nodes_[level_offset_[level] + node_to].sums;
      for (std::size_t j = 0; j < kWidth; ++j) {
        sums[j] -= static_cast<std::int64_t>(j > child_from);
        to_sums[j] += static_cast<std::int64_t>(j > child_to);
      }
      from = node_from;
      to = node_to;
    }
    shift<RootWidth>(nodes_[0].sums, from, to);
  }

  /// One unit moves from child `from` to child `to` of the same node.
  template <std::size_t Width>
  static void shift(std::int64_t* sums, std::size_t from, std::size_t to) noexcept {
    for (std::size_t j = 0; j < Width; ++j) {
      sums[j] += static_cast<std::int64_t>(j > to) - static_cast<std::int64_t>(j > from);
    }
  }

  /// Index of the child whose range holds `target`, among the first
  /// `Width` slots; then `target` becomes relative to that child.
  template <std::size_t Width>
  static std::size_t scan(const std::int64_t* sums, std::int64_t& target) noexcept {
    std::int64_t at_or_below = 0;
    for (std::size_t j = 0; j < Width; ++j) at_or_below += sums[j] <= target;
    const auto child = static_cast<std::size_t>(at_or_below - 1);
    target -= sums[child];
    return child;
  }

  std::vector<Node> nodes_;                 // level by level, root first
  std::vector<std::size_t> level_offset_;   // index of each level's first node
  bool narrow_root_ = false;                // the root has at most 8 children
  std::size_t size_ = 0;
  std::int64_t total_ = 0;
};

/// The number of interactions the scheduler makes, from a fresh start,
/// before the first one that meets an agent an earlier one met: the length
/// ℓ of a collision-free run, P(ℓ ≥ m) = ∏_{j<m} (n−2j)(n−2j−1)/(n(n−1)).
/// E[ℓ] ≈ √(πn/8) interactions (√(πn/2) agents, the birthday problem):
/// ~627 at n = 10⁶. Drawn by inversion, one uniform and O(ℓ) multiplies,
/// with + − × ÷ only and no table. Requires n ≥ 2; 1 ≤ ℓ ≤ n/2.
Interactions collision_free_run_length(Xoshiro256pp& rng, Count n);

class PairSampler {
 public:
  /// Builds the sampler over the configuration's counts.
  /// Requires a population of at least two agents.
  explicit PairSampler(const Configuration& config);

  /// Draws an ordered pair of states of two distinct uniformly random
  /// agents. Does not modify the tracked counts.
  std::pair<State, State> sample(Xoshiro256pp& rng) const noexcept {
    const auto n = static_cast<std::uint64_t>(tree_.total());
    const std::uint64_t initiator = rng.bounded(n);
    // The responder is uniform over the other n-1 agent indices: skip the
    // initiator's own index.
    std::uint64_t responder = rng.bounded(n - 1);
    responder += static_cast<std::uint64_t>(responder >= initiator);
    return {static_cast<State>(tree_.find(static_cast<std::int64_t>(initiator))),
            static_cast<State>(tree_.find(static_cast<std::int64_t>(responder)))};
  }

  /// Keeps the sampler in sync after an agent moves between states.
  void move_agent(State from, State to) noexcept {
    if (from != to) tree_.move(from, to);
  }

 private:
  PrefixSumTree tree_;
};

}  // namespace ppsim
