// Exact sequential-interaction engine for k-opinion USD.
//
// The model is one ordered pair of distinct agents per interaction, with
// USD's three rules (protocols/usd.hpp): a clash of two opinions sends both
// agents to ⊥, an undecided agent adopts its partner's opinion, and an equal
// pair is null. The initiator moves first.
//
// The engine runs that chain exactly in one of two ways:
//   * step() draws one pair through the PairSampler and applies it. It is
//     run_until's path (hitting times are checked after every interaction)
//     and run_until_stable's path for small populations.
//   * run_until_stable's bulk path applies collision-free batches
//     (Berenbrink et al., ESA 2020, arXiv:2005.03584). It draws the length ℓ
//     of the run of interactions whose 2ℓ agents are all distinct
//     (collision_free_run_length, ~√(πn/8)). Those agents are a draw
//     without replacement, so hypergeometrics give what the run does: its
//     ⊥ initiators, ⊥ responders and ⊥⊥ pairs, the opinions of its decided
//     agents, and, down a balanced split tree over those opinions (the
//     layout of kernels/pair_law.hpp), how many of each opinion meet a ⊥
//     agent (which adopts it) and how many equal pairs they form. Distinct agents commute,
//     so the run lands as one count update. The interaction that ends the
//     run meets at least one touched agent; it is applied as one step on
//     states drawn from the touched and untouched compositions. That is
//     ~5k draws for ~√n interactions, and the exact chain, not an
//     approximation.
//
// Stopping times are exact on both paths. The engine counts the opinions
// with a nonzero count, so is_stable() is O(1): a USD configuration is
// stable iff no opinion is present, or exactly one is and no agent is
// undecided. A batch that ends stable became stable on its last non-null
// interaction; the interactions of a collision-free run are exchangeable, so
// with m non-null ones among ℓ that is the largest element of a uniform
// m-subset of 1…ℓ (uniform_subset_max). The interaction budget and the end
// of each unit of parallel time (n interactions) cut a batch short; a
// shorter collision-free run is still the exact chain, and because no batch
// straddles a unit, run_until_stable called in chunks of whole units makes
// the same draws as one call.
//
// The engine owns the configuration, the pair sampler and the RNG, so a
// Simulator is a self-contained, restartable experiment.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/recorder.hpp"
#include "ppsim/core/scheduler.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"  // CheckFailure, thrown by the members below
#include "ppsim/util/rng.hpp"

namespace ppsim {

/// Outcome of a bounded run.
struct RunOutcome {
  bool stabilized = false;
  Interactions interactions = 0;             ///< attempted interactions so far
  /// Interactions the engine attempted but could not realise (τ-leaping
  /// overdraw clamped to live counts). Always 0 for the exact sequential
  /// engine; for the collapsed round engine, `interactions -
  /// clamped` is the effective count — report both so throughput numbers
  /// are honest.
  Interactions clamped = 0;
  std::optional<Opinion> consensus;          ///< output all agents agree on, if any
};

class Simulator {
 public:
  /// `initial` must have USD's k + 1 states, ⊥ first.
  Simulator(const UndecidedStateDynamics& usd, Configuration initial,
            std::uint64_t seed);

  const Configuration& configuration() const noexcept { return config_; }
  Interactions interactions() const noexcept { return interactions_; }
  double parallel_time() const noexcept {
    return ppsim::parallel_time(interactions_, config_.population());
  }

  /// Performs exactly one interaction. Returns true iff a state changed.
  /// Keeps is_stable() exact after every interaction.
  bool step();

  /// Performs one collision-free batch: the run of interactions before the
  /// first one that meets an agent an earlier one met, then that one, as
  /// one count update. The run stops early at the interaction that makes
  /// the configuration stable, at `max_interactions` total and at the next
  /// multiple of n interactions. A no-op when stable or out of budget.
  /// Exact at any n; run_until_stable calls it where it costs less than
  /// stepping (batch_pays()).
  void batch(Interactions max_interactions);

  /// Runs until the protocol stabilizes or `max_interactions` total
  /// interactions have been performed (counted from construction). A run
  /// that stabilizes stops on the interaction that made it stable. Runs
  /// collision-free batches where they pay (see batch_pays()) and steps
  /// otherwise; a recorder observes at batch ends.
  RunOutcome run_until_stable(Interactions max_interactions);

  /// Runs until `predicate(config, interactions)` is true (checked after
  /// every interaction: this loop always steps), the protocol stabilizes
  /// (once stable the configuration is frozen, so an unfired configuration
  /// predicate never fires), or the budget is exhausted. Returns the
  /// outcome; `stabilized` reflects protocol stability at exit.
  RunOutcome run_until(
      const std::function<bool(const Configuration&, Interactions)>& predicate,
      Interactions max_interactions);

  /// True iff no pair of agents can change any state. O(1).
  bool is_stable() const noexcept {
    return usd_stable(config_, surviving_opinions_);
  }

  /// If every agent's output is the same committed opinion, returns it.
  std::optional<Opinion> consensus_output() const;

  /// Streams strided samples (and, when the recorder has a checkpoint
  /// stride, full engine snapshots) from inside the run loops. Not owned;
  /// nullptr detaches. The recorder must outlive the run calls.
  void set_recorder(Recorder* recorder) noexcept { recorder_ = recorder; }

  /// The mutable state (counts, RNG state, interaction clock) that an
  /// archive's checkpoint records carry.
  EngineCheckpoint checkpoint_state() const;

  /// A batch costs O(q) variates for q surviving opinions and replaces
  /// E[ℓ] ≈ √(πn/8) steps, so run_until_stable batches while
  /// √(πn/8) ≥ kStepsPerBatchState · (q + 1).
  ///
  /// Chosen by measurement: whole `--engine sequential` trials at one
  /// thread, stepping only against batching only (Release, gcc 12.2, 4-core
  /// Xeon container, one run per point). Stepping cost 33–41 ns per
  /// interaction at k = 3, 40–53 ns at k = 27 and 81–84 ns at k = 100.
  /// Batching was already cheaper at n = 3·10³ for k = 3 (E[ℓ] ≈
  /// 8.5·(k + 1)) and broke even near n = 5·10⁴ at k = 27 (≈ 5·(k + 1)) and
  /// n = 10⁵ at k = 100 (≈ 2·(k + 1)). 6 errs towards stepping, where the
  /// two cost about the same at k ≤ 27; at k = 100 it steps up to
  /// n ≈ 9·10⁵, where a batch would cost up to ~30% less.
  static constexpr double kStepsPerBatchState = 6.0;

 private:
  void observe() {
    if (recorder_ == nullptr) return;
    recorder_->maybe_sample(config_, interactions_);
    if (recorder_->checkpoint_due(interactions_)) {
      recorder_->record_checkpoint(checkpoint_state());
    }
  }

  /// True iff a collision-free batch is expected to cost less than the
  /// steps it replaces (kStepsPerBatchState).
  bool batch_pays() const noexcept;

  /// Down the split tree over branch_[lo, hi), the run's decided agents
  /// there: `adopters` of them are partnered with ⊥ and 2·`pairs` are in
  /// pairs inside the node, two uniform disjoint subsets, the pairs a
  /// uniform matching. Sets each leaf's adopters_ (A_i) and same_ (D_i).
  void split_pairs(std::size_t lo, std::size_t hi, Count adopters, Count pairs);

  /// Applies USD's rule to an ordered pair of states. Returns true iff a
  /// state changed.
  bool interact(State a, State b);

  /// Moves one agent in the configuration and (unless stale) the sampler,
  /// and keeps the count of present opinions.
  void move_agent(State from, State to);

  Configuration config_;
  PairSampler sampler_;
  Xoshiro256pp rng_;
  Interactions interactions_ = 0;
  Recorder* recorder_ = nullptr;
  std::size_t surviving_opinions_ = 0;  // opinions with a nonzero count
  bool sampler_stale_ = false;          // a batch moved counts past sampler_

  // Batch scratch, one entry per state (⊥ first) unless noted.
  std::vector<Count> touched_;    // the run's decided agents (W_i)
  std::vector<Count> adopters_;   // of those, partnered with ⊥ (A_i)
  std::vector<Count> same_;       // equal decided×decided pairs (D_i)
  std::vector<Count> next_;       // counts after the run
  std::vector<Count> untouched_;  // agents the run did not meet
  std::vector<State> branch_;     // opinions with W_i > 0, the tree's leaves
  std::vector<Count> prefix_;     // prefix sums of W over branch_ (size + 1)
};

}  // namespace ppsim
