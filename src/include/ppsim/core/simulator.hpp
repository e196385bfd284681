// Exact sequential-interaction engine for k-opinion USD.
//
// Each step draws one ordered pair of distinct agents and applies USD's
// three rules (protocols/usd.hpp) inline: a clash of two opinions sends both
// agents to ⊥, an undecided agent adopts its partner's opinion, and an equal
// pair is null. The initiator moves first.
//
// The engine owns the configuration, the pair sampler and the RNG, so a
// Simulator is a self-contained, restartable experiment. Stopping times are
// exact: the engine counts the opinions with a nonzero count, updating the
// count only when an opinion's count crosses 0, so is_stable() is O(1) after
// every interaction. A USD configuration is stable iff no opinion is
// present, or exactly one is and no agent is undecided.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

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

  /// Runs until the protocol stabilizes or `max_interactions` total
  /// interactions have been performed (counted from construction). A run
  /// that stabilizes stops on the interaction that made it stable.
  RunOutcome run_until_stable(Interactions max_interactions);

  /// Runs until `predicate(config, interactions)` is true (checked after
  /// every interaction), the protocol stabilizes (once stable the
  /// configuration is frozen, so an unfired configuration predicate never
  /// fires), or the budget is exhausted. Returns the outcome; `stabilized`
  /// reflects protocol stability at exit.
  RunOutcome run_until(
      const std::function<bool(const Configuration&, Interactions)>& predicate,
      Interactions max_interactions);

  /// True iff no pair of agents can change any state. O(1).
  bool is_stable() const noexcept {
    return surviving_opinions_ == 0 ||
           (surviving_opinions_ == 1 &&
            config_.counts()[UndecidedStateDynamics::kUndecided] == 0);
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

 private:
  void observe() {
    if (recorder_ == nullptr) return;
    recorder_->maybe_sample(config_, interactions_);
    if (recorder_->checkpoint_due(interactions_)) {
      recorder_->record_checkpoint(checkpoint_state());
    }
  }

  /// Moves one agent in the configuration and the sampler, and keeps the
  /// count of present opinions.
  void move_agent(State from, State to);

  Configuration config_;
  PairSampler sampler_;
  Xoshiro256pp rng_;
  Interactions interactions_ = 0;
  Recorder* recorder_ = nullptr;
  std::size_t surviving_opinions_ = 0;  // opinions with a nonzero count
};

}  // namespace ppsim
