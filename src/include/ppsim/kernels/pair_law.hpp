// USD's interaction law over a counts-space configuration — the substrate of
// the round kernel.
//
// Under the uniform scheduler one interaction picks an ordered pair of
// distinct agents, i.e. ordered state pair (a, b) with probability
// w(a,b) / n(n−1), where w(a,b) = c_a·c_b for a ≠ b and w(a,a) = c_a·(c_a−1).
// In USD's ⊥-first layout (state 0 = ⊥, state i+1 = opinion i) only two kinds
// of pair change a count, and each kind moves both of its ordered pairs the
// same way:
//   * an adoption {⊥, i}: the undecided agent takes opinion i; weight
//     2·u·c_i, Σ = 2uS with u = c_⊥ and S = Σ_i c_i;
//   * a clash {i, j}, i ≠ j: both agents go to ⊥, whatever the partner is;
//     weight 2·c_i·c_j, Σ = 2W with W = Σ_{i<j} c_i·c_j.
// Every other pair is null.
//
// A round therefore needs only A_i, the adoptions into opinion i, and L_i,
// the clash endpoints on opinion i — not the per-pair counts. rebuild() is
// O(k): it sums S, u and W and lays a balanced binary split tree over the
// opinions present (c_i > 0). At an internal node V = A ∪ B it stores the
// three split probabilities RoundKernel::advance draws with:
//   * internal clashes of V split into (AA, BB, AB) ∝ (W_A, W_B, S_A·S_B);
//   * clash endpoints V inherits from its ancestors (their partner lies
//     outside V, so they land on V's opinions ∝ c_i) split Bin(·, S_A/S_V).
// S_V = Σ_{i∈V} c_i, and W_V, V's internal clash weight, is built bottom-up
// as W_A + W_B + S_A·S_B, never as (S_V² − Σc_i²)/2, which cancels
// catastrophically once one opinion dominates.
//
// The per-pair buckets — adoptions {⊥, i} in opinion order, then clashes
// {i, j}, i < j, both present — are enumerated lazily, on first use after a
// rebuild: the exact single-draw path samples one of them through a
// Walker/Vose alias table, and the bucket accessors serve the tests and
// perfbench. At k = 27 there are 378 of them; a batched round never builds
// them.
//
// Cache discipline: rebuild() bumps a generation counter, and the lazily
// built buckets and alias table record the generation they were built for —
// so neither can desynchronize from the law itself. Engines track one
// counter of their own (counts generation) and rebuild the law when it
// moved; everything downstream invalidates through this single chain
// (counts generation → law generation → bucket and alias generation).
#pragma once

#include <cstdint>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/util/alias_table.hpp"

namespace ppsim::kernels {

/// One node of the split tree, stored in pre-order: an internal node's left
/// child is the next node, its right child is at `right`.
struct SplitNode {
  double p_left_internal = 0.0;   ///< W_A / W_V: an internal clash stays in A
  double p_right_internal = 0.0;  ///< W_B / (W_B + S_A·S_B), given not in A
  double p_left = 0.0;            ///< S_A / S_V: an inherited endpoint lands in A
  std::uint32_t right = 0;        ///< right child's index; 0 at a leaf
  Opinion opinion = 0;            ///< a leaf's opinion (0-based)
};

class PairLaw {
 public:
  /// Recomputes the law from live counts in USD's ⊥-first layout. O(k).
  /// Bumps generation(); the buckets and alias table are invalidated
  /// implicitly.
  void rebuild(const Configuration& config);

  /// rebuild(config) for a caller holding a compiled table; the law is
  /// USD's, so the table only has to cover config's states. Only perfbench
  /// still calls this overload.
  void rebuild(const TransitionTable& table, const Configuration& config);

  /// True when every interaction is null (the configuration is stable).
  bool empty() const noexcept { return active_weight_ == 0.0; }

  /// The lazily enumerated buckets: bucket i's representative pair (a < b),
  /// its transition f(a, b) and its weight 2·c_a·c_b.
  std::size_t size() const { return buckets().a.size(); }
  State a(std::size_t i) const { return buckets().a[i]; }
  State b(std::size_t i) const { return buckets().b[i]; }
  Transition transition(std::size_t i) const;
  double weight(std::size_t i) const { return buckets().weight[i]; }
  const std::vector<double>& weights() const { return buckets().weight; }

  /// Walker/Vose alias table over weights(), built lazily and cached per
  /// generation — callers can never observe a table from a previous build.
  /// Requires !empty().
  const AliasTable& alias() const;

  /// Ordered-pair weights: adoptions 2uS, the non-null pairs 2uS + 2W, and
  /// all n(n−1) pairs. active/total is the per-interaction probability of a
  /// non-null draw.
  double adoption_weight() const noexcept { return adoption_weight_; }
  double active_weight() const noexcept { return active_weight_; }
  double total_weight() const noexcept { return total_weight_; }

  /// Per-state removal weight, the expected removals of s per interaction
  /// times n(n−1): 2uS for ⊥ and 2·c_i·(S − c_i) for opinion i. The
  /// collapsed engine's τ controller bounds it against ε·c_s.
  double consumption(std::size_t s) const noexcept { return consumption_[s]; }
  std::size_t num_states() const noexcept { return consumption_.size(); }

  /// c_i per opinion (0-based; zeros included): the adoption multinomial's
  /// weights.
  const std::vector<double>& opinion_weights() const noexcept {
    return opinion_weight_;
  }
  /// The split tree over the present opinions, in pre-order; empty when no
  /// opinion is present.
  const std::vector<SplitNode>& tree() const noexcept { return tree_; }

  /// Monotone build counter; 0 before the first rebuild().
  std::uint64_t generation() const noexcept { return generation_; }

 private:
  struct Buckets {
    std::vector<State> a;
    std::vector<State> b;
    std::vector<double> weight;
    std::uint64_t generation = 0;  ///< law generation these were built at
  };
  struct Sums {
    double s;  ///< S_V
    double w;  ///< W_V
  };
  /// Appends the subtree over present_[lo, hi) to tree_ in pre-order.
  Sums grow(std::size_t lo, std::size_t hi);
  const Buckets& buckets() const {
    return buckets_.generation == generation_ ? buckets_ : enumerate();
  }
  /// Rebuilds buckets_ for this generation.
  const Buckets& enumerate() const;

  double undecided_ = 0.0;
  std::vector<double> opinion_weight_;
  std::vector<Opinion> present_;
  std::vector<SplitNode> tree_;
  std::vector<double> consumption_;
  double adoption_weight_ = 0.0;
  double active_weight_ = 0.0;
  double total_weight_ = 0.0;
  std::uint64_t generation_ = 0;
  mutable Buckets buckets_;
  mutable AliasTable alias_;
  mutable std::uint64_t alias_generation_ = 0;  ///< generation alias_ matches
};

/// Outcome of applying drawn interactions to the live counts.
struct ApplyResult {
  Interactions clamped = 0;  ///< attempted-but-unrealised overdraw
  bool moved = false;        ///< any count changed (law is now stale)
};

/// Applies m interactions of bucket i, limited to the live counts: an
/// adoption needs a live undecided agent, a clash a live agent on each side.
/// The exact single-draw path calls it with m = 1.
ApplyResult apply_one(const PairLaw& law, Configuration& config, std::size_t i,
                      Interactions m);

/// apply_one for each bucket in order (draws[i] interactions of bucket i),
/// accumulating the clamp, on one copy of the counts committed with a
/// single Configuration::assign_counts check. No engine path draws per
/// bucket any more; only perfbench still calls this.
ApplyResult apply_draws(const PairLaw& law, Configuration& config,
                        const std::vector<std::int64_t>& draws);

/// Applies one round of RoundKernel::advance — `active` non-null
/// interactions, draws = (A_0..A_{k−1}, L_0..L_{k−1}) — clamping each state
/// to its live count. Adoptions go first, in opinion order, each limited by
/// the live u; then clash endpoints, each L_i limited by the live c_i. The
/// clamp counts every unrealised adoption plus one interaction per
/// unrealised endpoint, capped at the round's clashes (active − ΣA_i),
/// so it never exceeds `active`. One Configuration::assign_counts check
/// commits the round.
ApplyResult apply_round(Configuration& config, Interactions active,
                        const std::vector<std::int64_t>& draws);

}  // namespace ppsim::kernels
