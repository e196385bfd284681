// Unconditional Undecided State Dynamics (USD) for k opinions — the protocol
// whose stabilization time the paper lower-bounds.
//
// State space Σ = {⊥, 1, ..., k} (k+1 states; we index opinions 0-based in
// code and reserve state 0 for ⊥). Transition function (Section 1.1):
//     f(s1, s2) = (⊥, ⊥)   if s1 ≠ s2 and both are opinions,
//     f(s, ⊥)   = (s, s)   for any opinion s (and symmetrically),
//     f          = identity otherwise.
//
// Two implementations are provided:
//   * UndecidedStateDynamics — a Protocol, usable with the generic engines
//     (table-driven Simulator, stability machinery, gossip comparisons);
//   * UsdEngine — a specialized sequential engine for the paper-scale
//     experiments (n = 10^6, ~10^8 interactions): no virtual dispatch, O(1)
//     stabilization detection, direct access to the observables the paper
//     plots (u(t), x_i(t), Δmax(t)).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/protocol.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/util/fenwick.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {

/// Generic-protocol formulation of k-opinion USD.
class UndecidedStateDynamics final : public Protocol {
 public:
  static constexpr State kUndecided = 0;

  explicit UndecidedStateDynamics(std::size_t k);

  /// State encoding an opinion (opinions are 0-based; state = opinion + 1).
  static State opinion_state(Opinion i) noexcept { return static_cast<State>(i + 1); }

  /// Configuration over the k+1 USD states (k = opinion_counts.size()):
  /// opinion_counts[i] agents on opinion i, `undecided` agents in ⊥. This is
  /// the one place that knows the ⊥-first state layout — use it instead of
  /// hand-prepending a zero to the counts.
  static Configuration initial_configuration(const std::vector<Count>& opinion_counts,
                                             Count undecided = 0);

  std::size_t num_opinions() const noexcept { return k_; }
  std::size_t num_states() const override { return k_ + 1; }
  Transition apply(State initiator, State responder) const override;
  std::optional<Opinion> output(State s) const override;
  std::string name() const override;
  std::string state_name(State s) const override;

 private:
  std::size_t k_;
};

/// Specialized exact engine for USD.
///
/// Observables mirror the paper's notation: `undecided()` is u(t),
/// `opinion_count(i)` is x_{i+1}(t) (0-based), `delta_max()` is
/// max_{i,j}(x_i - x_j). All counts are exact; the engine performs the same
/// stochastic process as Simulator + UndecidedStateDynamics, only faster.
class UsdEngine {
 public:
  /// Starts from `opinion_counts[i]` agents holding opinion i and
  /// `undecided` agents in ⊥. Population must be at least 2.
  UsdEngine(std::vector<Count> opinion_counts, Count undecided, std::uint64_t seed);

  /// Convenience constructor: all agents decided (u(0) = 0, as in the paper).
  UsdEngine(std::vector<Count> opinion_counts, std::uint64_t seed)
      : UsdEngine(std::move(opinion_counts), 0, seed) {}

  Count population() const noexcept { return n_; }
  std::size_t num_opinions() const noexcept { return k_; }
  Interactions interactions() const noexcept { return interactions_; }
  double time() const noexcept { return parallel_time(interactions_, n_); }

  Count undecided() const noexcept { return counts_[0]; }
  Count opinion_count(Opinion i) const;
  /// Number of opinions with a nonzero count.
  std::size_t surviving_opinions() const noexcept { return nonzero_opinions_; }

  /// max_i x_i, min over *surviving* semantics is intentionally NOT used:
  /// the paper's Δ ranges over all k opinions, including extinct ones.
  Count max_opinion_count() const noexcept;
  Count min_opinion_count() const noexcept;
  /// Δ(t) = max_{i,j} (x_i(t) - x_j(t)) = max count - min count. O(k).
  Count delta_max() const noexcept { return max_opinion_count() - min_opinion_count(); }

  /// O(1) stabilization test: stable iff all agents share one opinion or all
  /// are undecided (the only configurations where f cannot fire).
  bool stabilized() const noexcept {
    return counts_[0] == n_ || (counts_[0] == 0 && nonzero_opinions_ == 1);
  }

  /// The winning opinion if stabilized on an opinion; nullopt otherwise
  /// (not yet stable, or stabilized all-undecided).
  std::optional<Opinion> winner() const;

  /// Performs one interaction. Returns true iff any state changed.
  bool step();

  /// Runs until stabilized or the *total* interaction count reaches
  /// `max_interactions`. Returns true iff stabilized.
  bool run_until_stable(Interactions max_interactions);

  /// Runs like run_until_stable, invoking `observer(*this)` after every
  /// interaction. The observer is inlined — this is the hot-loop hook used
  /// by the recorders and hitting-time detectors.
  template <typename F>
  bool run_observed(Interactions max_interactions, F&& observer) {
    while (interactions_ < max_interactions && !stabilized()) {
      step();
      observer(static_cast<const UsdEngine&>(*this));
    }
    return stabilized();
  }

  /// Runs until `predicate(*this)` holds (checked after each interaction) or
  /// budget/stabilization stops the run. Returns true iff the predicate
  /// fired.
  template <typename P>
  bool run_until(Interactions max_interactions, P&& predicate) {
    while (interactions_ < max_interactions && !stabilized()) {
      step();
      if (predicate(static_cast<const UsdEngine&>(*this))) return true;
    }
    return false;
  }

  /// Adversarially moves one agent between states (layout: 0 = ⊥,
  /// i+1 = opinion i) while maintaining every engine invariant. This is the
  /// hook for fault injection (see core/faults.hpp) — it is NOT part of the
  /// protocol's own dynamics and does not count as an interaction.
  /// Throws CheckFailure if no agent occupies `from`.
  void corrupt_agent(State from, State to);

  /// Snapshot as a Configuration over the k+1 USD states (state 0 = ⊥).
  Configuration snapshot() const { return Configuration(counts_); }

  /// Raw counts, counts()[0] = u, counts()[i+1] = x_{i+1}. Exposed for
  /// recorders; treat as read-only.
  const std::vector<Count>& counts() const noexcept { return counts_; }

 private:
  std::size_t k_;
  Count n_;
  std::vector<Count> counts_;      // counts_[0] = undecided, counts_[i+1] = opinion i
  FenwickTree weights_;            // mirrors counts_ for O(log k) pair sampling
  Xoshiro256pp rng_;
  Interactions interactions_ = 0;
  std::size_t nonzero_opinions_ = 0;
};

}  // namespace ppsim
