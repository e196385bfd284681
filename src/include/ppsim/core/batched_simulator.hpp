// Batched (round-based) simulation engine for population protocols.
//
// The sequential Simulator performs one interaction per step; USD-style
// dynamics stabilize only after Θ(n·polylog n) interactions, so paper-scale
// populations (n ≥ 10⁷) cost minutes of wall clock. This engine simulates a
// whole *round* of B = Θ(n) interactions in O(q²) work, where q = |Σ|:
//
//   1. Under the uniform scheduler each interaction picks an ordered pair of
//      distinct agents, i.e. ordered state pair (a, b) with probability
//      w(a,b) / n(n-1), where w(a,b) = c_a·c_b for a ≠ b and
//      w(a,a) = c_a·(c_a - 1) (the self-pair collision correction: an agent
//      never interacts with itself).
//   2. The number of interactions landing on each pair over B draws is
//      multinomial in these weights. We first split off the null pairs
//      (f leaves both states unchanged) with one binomial draw, then
//      distribute the remainder over the active non-null pairs with an exact
//      multinomial (sequential conditional binomials).
//   3. Each non-null pair's interactions are applied in bulk through the
//      TransitionTable: m interactions on (a, b) move m agents a → f(a,b).i
//      and m agents b → f(a,b).r.
//
// Exactness: with round size 1 the engine realises *exactly* the sequential
// Markov chain (one multinomial draw selects one pair with the correct
// probabilities). For larger rounds it is a τ-leaping approximation: all B
// pair draws in a round see the *start-of-round* configuration, so rates are
// stale by the O(B/n) fraction of agents that interact within the round.
// Bulk moves are clamped to the live counts (Configuration's invariants —
// non-negative counts, constant population — are preserved unconditionally);
// `clamped_interactions()` reports how often that correction fired, which is
// ~never for round divisors ≥ 8 (overdraw needs a many-sigma multinomial
// deviation). See README.md for guidance on choosing the round size.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/protocol.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {

class BatchedSimulator {
 public:
  struct Options {
    /// Round size is max(1, population / round_divisor) interactions.
    /// Larger divisors mean smaller rounds: less τ-leaping staleness, more
    /// rounds. A divisor ≥ population gives rounds of a single interaction,
    /// which reproduces the sequential chain exactly.
    Interactions round_divisor = 16;
    /// Round-sampling backend (kernels/round_kernel.hpp). kScalar is the
    /// determinism anchor every golden pin is recorded against; kAvx2
    /// throws at construction when the build or CPU lacks it.
    kernels::KernelKind kernel = kernels::KernelKind::kScalar;
  };

  /// The protocol must outlive the simulator. Requires ≥ 2 agents.
  BatchedSimulator(const Protocol& protocol, Configuration initial,
                   std::uint64_t seed, Options options);
  BatchedSimulator(const Protocol& protocol, Configuration initial,
                   std::uint64_t seed);

  const Configuration& configuration() const noexcept { return config_; }
  Interactions interactions() const noexcept { return interactions_; }
  double parallel_time() const noexcept {
    return ppsim::parallel_time(interactions_, config_.population());
  }
  Interactions round_size() const noexcept { return round_size_; }
  Interactions clamped_interactions() const noexcept { return clamped_; }

  /// Simulates one round of at most `max_interactions` interactions (the
  /// round size caps it). Returns the number of interactions simulated.
  Interactions step_round(Interactions max_interactions);

  /// Runs whole rounds until the protocol stabilizes or `max_interactions`
  /// total interactions (counted from construction) have been simulated.
  /// Same contract as Simulator::run_until_stable.
  RunOutcome run_until_stable(Interactions max_interactions);

  /// Runs until `predicate(config, interactions)` holds or the budget is
  /// exhausted. The predicate is checked once per *round* (coarser than the
  /// sequential engine's per-interaction check).
  RunOutcome run_until(
      const std::function<bool(const Configuration&, Interactions)>& predicate,
      Interactions max_interactions);

  /// True iff no applicable pair can change any state.
  bool is_stable() const { return table_.is_stable(config_); }

  /// If every agent's output is the same committed opinion, returns it.
  std::optional<Opinion> consensus_output() const {
    return ppsim::consensus_output(protocol_, config_);
  }

  /// Streams strided samples (and engine checkpoints) from inside the run
  /// loops, once per round. Not owned; nullptr detaches.
  void set_recorder(Recorder* recorder) noexcept { recorder_ = recorder; }

  /// Snapshot / restore of the full mutable state (counts, RNG, clocks);
  /// see Simulator::checkpoint_state for the contract. The pair law is a
  /// deterministic function of the counts, so restoring just bumps the
  /// counts generation (the single invalidation point).
  EngineCheckpoint checkpoint_state() const;
  void restore_checkpoint(const EngineCheckpoint& state);

  /// The round kernel this engine samples with (resolved from
  /// Options::kernel at construction).
  const kernels::RoundKernel& kernel() const noexcept { return *kernel_; }

 private:
  RunOutcome outcome() const;
  void observe() {
    if (recorder_ == nullptr) return;
    recorder_->maybe_sample(config_, interactions_);
    if (recorder_->checkpoint_due(interactions_)) {
      recorder_->record_checkpoint(checkpoint_state());
    }
  }

  const Protocol& protocol_;
  TransitionTable table_;
  Configuration config_;
  Xoshiro256pp rng_;
  Interactions round_size_;
  const kernels::RoundKernel* kernel_;
  Interactions interactions_ = 0;
  Interactions clamped_ = 0;
  Recorder* recorder_ = nullptr;

  // The active-pair law, rebuilt when law_generation_ falls behind
  // counts_generation_. Historically this engine re-enumerated the pairs
  // every round; the rebuild is RNG-free, so skipping it while no count has
  // moved leaves the draw sequence bit-identical and saves the O(S²) scan
  // on null-heavy stretches.
  kernels::PairLaw law_;
  std::uint64_t counts_generation_ = 1;
  std::uint64_t law_generation_ = 0;  ///< counts generation law_ was built at
  std::vector<std::int64_t> draws_;   ///< kernel scratch (multinomial output)
};

}  // namespace ppsim
