// Counts-space ("collapsed") round engine for k-opinion USD.
//
// The sequential Simulator already works on counts but still pays one RNG
// draw per *interaction*. This engine simulates the count Markov chain
// directly and is built for populations far beyond the sequential engine's
// reach (n = 10^9–10^11):
//
//   * State is only the k + 1 counts (a Configuration). No per-agent data
//     structure exists at any n.
//   * Single-interaction rounds sample the interacting pair from the *exact*
//     pair law — P[(a, b)] = w(a,b) / n(n−1) with w(a,b) = c_a·c_b for
//     a ≠ b and w(a,a) = c_a·(c_a − 1) — as a Bernoulli "non-null" draw and
//     then a Walker/Vose alias draw over the active pair buckets. Null
//     interactions leave the counts unchanged, so the O(k²) bucket
//     enumeration and its alias table survive them untouched.
//   * Multi-interaction rounds batch a run of identical-distribution draws:
//     the round kernel splits off the null interactions, then the
//     adoptions, and spreads the adoptions over the opinions and the clash
//     endpoints down USD's split tree (kernels/round_kernel.hpp), in O(k)
//     binomials. All draws of a round see the start-of-round counts
//     (τ-leaping), and the O(k) law rebuild runs once per round that moved
//     a count.
//
// The round length τ follows one of two policies (Options::fixed_round):
//   * adaptive (fixed_round = 0, the default): the τ controller (choose_tau)
//     bounds per-round drift error two ways:
//     1. per-state: the *expected* number of interactions consuming state s
//        in the round is at most tau_epsilon · c_s, so no state's count
//        drifts by more than an ε fraction in expectation (and the overdraw
//        clamp, kept for safety, needs a many-sigma multinomial deviation to
//        fire);
//     2. aggregate: τ ≤ tau_epsilon · n, bounding the total fraction of
//        agents whose states go stale within one round (this also covers
//        inflow-driven growth of states that start the round near zero,
//        e.g. u(0) = 0 in the paper's initial configurations).
//     With tau_epsilon = 0.05 and USD-style dynamics τ stays near ε·n
//     throughout a run — orders of magnitude fewer rounds than interactions
//     — while shrinking automatically wherever a state is being drained
//     quickly.
//   * fixed (fixed_round = r > 0): every round is exactly min(r, budget)
//     interactions regardless of how fast the configuration moves. No
//     EngineKind selects it: it is the exactness seam (r = 1) the
//     equivalence and golden tests drive directly.
//
// Exactness: with fixed_round = 1 (or budget 1) every round is a single draw
// from the exact pair law, realising precisely the sequential Markov chain;
// tests/engine_equivalence_test.cpp pins this against the sequential
// engine. For larger rounds it is a τ-leaping approximation. Bulk moves are
// clamped per state to the live counts (kernels::apply_round defines the
// clamp; clamped_interactions() reports how much of it fired). Stability is
// USD's rule, as in Simulator: no opinion present, or exactly one and no
// undecided agent. Counts and interaction totals use 64-bit saturating
// arithmetic (util/check sat_add/sat_mul); populations are capped at 2^53 so
// every count stays exactly representable in the double-precision weights.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {

class CollapsedSimulator {
 public:
  struct Options {
    /// Per-round drift tolerance ε of the adaptive τ controller (see file
    /// comment). Smaller is more accurate and slower; 0.05 keeps the
    /// stabilization-time distribution within the KS envelope of fixed
    /// n/16 rounds while adapting the round length to the configuration.
    /// Unused when fixed_round > 0.
    double tau_epsilon = 0.05;
    /// Round-length policy: 0 = adaptive (the τ controller decides); r > 0 =
    /// every round is exactly min(r, budget) interactions. fixed_round = 1
    /// forces single-interaction rounds, i.e. the exact sequential chain.
    Interactions fixed_round = 0;
    /// Round kernel (kernels/round_kernel.hpp). kScalar is the only one;
    /// any other kind throws at construction.
    kernels::KernelKind kernel = kernels::KernelKind::kScalar;
  };

  /// Largest supported population: counts and pair weights must stay exactly
  /// representable in a double (2^53).
  static constexpr Count kMaxPopulation = Count{1} << 53;

  /// `initial` must have USD's k + 1 states, ⊥ first. Requires
  /// 2 ≤ n ≤ 2^53.
  CollapsedSimulator(const UndecidedStateDynamics& usd, Configuration initial,
                     std::uint64_t seed, Options options);
  CollapsedSimulator(const UndecidedStateDynamics& usd, Configuration initial,
                     std::uint64_t seed);

  const Configuration& configuration() const noexcept { return config_; }
  Interactions interactions() const noexcept { return interactions_; }
  double parallel_time() const noexcept {
    return ppsim::parallel_time(interactions_, config_.population());
  }
  Interactions clamped_interactions() const noexcept { return clamped_; }
  /// Length of the most recent round (0 before the first round). Exposed for
  /// tests and adaptivity diagnostics.
  Interactions last_round_size() const noexcept { return last_round_size_; }

  /// Simulates one round of at most `max_interactions` interactions; the
  /// round-length policy picks the actual length. Returns the number
  /// simulated. If the configuration is stable the whole budget is consumed
  /// in one null round (nothing can change, so the leap is exact).
  Interactions step_round(Interactions max_interactions);

  /// Runs whole rounds until the protocol stabilizes or `max_interactions`
  /// total interactions (counted from construction) have been simulated.
  /// Same contract as Simulator::run_until_stable.
  RunOutcome run_until_stable(Interactions max_interactions);

  /// Runs until `predicate(config, interactions)` holds or the budget is
  /// exhausted. The predicate is checked once per *round* (adaptive round
  /// boundaries are ≤ tau_epsilon·n interactions apart, fixed ones
  /// fixed_round apart; per-round observables lag the exact chain by at
  /// most that much).
  RunOutcome run_until(
      const std::function<bool(const Configuration&, Interactions)>& predicate,
      Interactions max_interactions);

  /// True iff no pair of agents can change any state. O(1).
  bool is_stable() const noexcept {
    return usd_stable(config_, surviving_opinions_);
  }

  /// If every agent's output is the same committed opinion, returns it.
  std::optional<Opinion> consensus_output() const {
    return usd_consensus(config_, surviving_opinions_);
  }

  /// Streams strided samples (and engine checkpoints) from inside the run
  /// loops, once per round. Not owned; nullptr detaches.
  void set_recorder(Recorder* recorder) noexcept { recorder_ = recorder; }

  /// The full mutable state (counts, RNG state, interaction and clamp
  /// clocks) that an archive's checkpoint records carry. The pair law and
  /// its alias table are deterministic functions of the counts.
  EngineCheckpoint checkpoint_state() const;

  /// The round kernel this engine samples with.
  const kernels::RoundKernel& kernel() const noexcept { return *kernel_; }

  /// Staging API: step_round split at the kernel call, so a caller can time
  /// or drive the three phases separately (perfbench's collapsed workload
  /// does). stage_round picks the round length and either handles it
  /// locally (stable leap, exact single-draw path) returning false, or
  /// stages a kernel task over this engine's law, RNG and scratch and
  /// returns true; the caller then runs kernel().advance and calls
  /// commit_round. step_round(b) ≡ stage_round(b, t) &&
  /// (kernel().advance(t), commit_round(t)); commit_round applies the
  /// kernel's (A, L) draws through kernels::apply_round. Requires
  /// max_interactions > 0.
  bool stage_round(Interactions max_interactions, kernels::RoundTask& task);
  void commit_round(const kernels::RoundTask& task);

 private:
  RunOutcome outcome() const;
  void observe() {
    if (recorder_ == nullptr) return;
    recorder_->maybe_sample(config_, interactions_);
    if (recorder_->checkpoint_due(interactions_)) {
      recorder_->record_checkpoint(checkpoint_state());
    }
  }
  /// Any count mutation funnels through this single invalidation point:
  /// the pair law (and transitively its buckets and alias table) rebuilds
  /// iff the counts generation moved since it was last built, and the
  /// surviving-opinion count is re-read. O(k).
  void touch_counts() noexcept {
    ++counts_generation_;
    surviving_opinions_ = surviving_opinions(config_);
  }
  /// Rebuilds the pair law if a count changed since the last build. O(k).
  void refresh_law();
  /// Adaptive round length: min over the drift bounds, clamped to
  /// [1, budget]. Requires a fresh law.
  Interactions choose_tau(Interactions budget) const;

  Configuration config_;
  Xoshiro256pp rng_;
  Options options_;
  const kernels::RoundKernel* kernel_;
  Interactions interactions_ = 0;
  Interactions clamped_ = 0;
  Interactions last_round_size_ = 0;
  Recorder* recorder_ = nullptr;
  std::size_t surviving_opinions_ = 0;  // opinions with a nonzero count

  // The pair law, rebuilt when law_generation_ falls behind
  // counts_generation_ (kernels/pair_law.hpp owns the split tree, the
  // lazily enumerated buckets and their alias table).
  kernels::PairLaw law_;
  std::uint64_t counts_generation_ = 1;
  std::uint64_t law_generation_ = 0;  ///< counts generation law_ was built at
  std::vector<std::int64_t> draws_;   ///< kernel scratch: (A, L) per opinion
};

}  // namespace ppsim
