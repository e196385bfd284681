// The exact interaction law of a counts-space configuration, grouped into
// buckets — the shared substrate of every round kernel.
//
// Under the uniform scheduler one interaction picks an ordered pair of
// distinct agents, i.e. ordered state pair (a, b) with probability
// w(a,b) / n(n−1), where w(a,b) = c_a·c_b for a ≠ b and w(a,a) = c_a·(c_a−1)
// (an agent never interacts with itself). A bucket is one of:
//   * a merged mirror pair {a, b}, a < b, whenever f(b,a) is the mirror image
//     of f(a,b) — USD's clashes and adoptions, for example. Both orders have
//     the same count delta, leavers and catalysts, so no count can tell them
//     apart; the bucket is listed as (a, b) with f(a,b) and weighs
//     w(a,b) + w(b,a) = 2·c_a·c_b;
//   * an ordered pair (a, b) otherwise: the diagonal (a, a), and each order
//     of a pair whose transitions are not mirror images.
// Merging multinomial buckets with identical count deltas preserves the law
// of every round's count change, and halves the conditional-binomial chain
// for USD (378 buckets instead of 756 ordered pairs at k = 27).
//
// The collapsed round engine needs the same derived data from that law each
// round, under either round-length policy: the enumeration of *active*
// (non-null) buckets with their weights and transitions, the active/total
// weight split for the null binomial, the per-state consumption rates the
// adaptive τ controller integrates, and — on the exact single-draw path — a
// Walker/Vose alias table over the active weights. PairLaw is the single copy
// of that enumeration and the structure a RoundKernel consumes.
//
// Cache discipline: rebuild() bumps a generation counter, and the lazily
// built alias table records the generation it was built for — so alias
// staleness can never desynchronize from the law itself. Engines track one
// counter of their own (counts generation) and rebuild the law when it
// moved; everything downstream invalidates through this single chain
// (counts generation → law generation → alias generation) instead of
// hand-maintained dirty flags at every mutation site.
#pragma once

#include <cstdint>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/util/alias_table.hpp"

namespace ppsim::kernels {

class PairLaw {
 public:
  /// Recomputes the active-bucket enumeration from the live counts. O(S²).
  /// Bumps generation(); the alias table is invalidated implicitly.
  void rebuild(const TransitionTable& table, const Configuration& config);

  /// True when no active bucket exists (the configuration is stable: every
  /// interaction is null).
  bool empty() const noexcept { return weight_.empty(); }
  std::size_t size() const noexcept { return weight_.size(); }

  /// Bucket i's representative pair and its transition f(a, b); a < b for a
  /// merged mirror pair.
  State a(std::size_t i) const noexcept { return a_[i]; }
  State b(std::size_t i) const noexcept { return b_[i]; }
  const Transition& transition(std::size_t i) const noexcept { return t_[i]; }
  double weight(std::size_t i) const noexcept { return weight_[i]; }
  const std::vector<double>& weights() const noexcept { return weight_; }

  /// Σ w over the active buckets / over all n(n−1) ordered pairs. The ratio is
  /// the per-interaction probability of a non-null draw.
  double active_weight() const noexcept { return active_weight_; }
  double total_weight() const noexcept { return total_weight_; }

  /// Per-state Σ w_i · (agents of s removed by bucket i): the expected removal
  /// weight the collapsed engine's τ controller bounds against ε·c_s.
  double consumption(std::size_t s) const noexcept { return consumption_[s]; }
  std::size_t num_states() const noexcept { return consumption_.size(); }

  /// Monotone build counter; 0 before the first rebuild().
  std::uint64_t generation() const noexcept { return generation_; }

  /// Walker/Vose alias table over weights(), built lazily and cached per
  /// generation — callers can never observe a table from a previous build.
  /// Requires !empty().
  const AliasTable& alias() const;

 private:
  std::vector<State> a_;
  std::vector<State> b_;
  std::vector<Transition> t_;
  std::vector<double> weight_;
  std::vector<double> consumption_;
  double active_weight_ = 0.0;
  double total_weight_ = 0.0;
  std::uint64_t generation_ = 0;
  mutable AliasTable alias_;
  mutable std::uint64_t alias_generation_ = 0;  ///< generation alias_ matches
};

/// Outcome of applying drawn interactions to the live counts.
struct ApplyResult {
  Interactions clamped = 0;  ///< attempted-but-unrealised overdraw
  bool moved = false;        ///< any count changed (law is now stale)
};

/// Applies m interactions of active bucket i with the engines' shared overdraw
/// clamp: bulk moves are limited to the live counts so Configuration's
/// invariants (non-negative counts, constant population) hold
/// unconditionally even when earlier buckets in the round drained a state
/// below what the start-of-round weights promised.
ApplyResult apply_one(const PairLaw& law, Configuration& config, std::size_t i,
                      Interactions m);

/// Applies a whole round's multinomial draws (draws[i] interactions of bucket
/// i, in bucket order) with the same clamp as apply_one, accumulating the
/// clamp count. The round works on one copy of the counts and commits it
/// with a single Configuration::assign_counts check.
ApplyResult apply_draws(const PairLaw& law, Configuration& config,
                        const std::vector<std::int64_t>& draws);

}  // namespace ppsim::kernels
