// Exact sequential-interaction engine for arbitrary population protocols.
//
// Two dispatch modes share one implementation:
//   * table-driven (default) — f is compiled into a dense TransitionTable;
//     best for small-to-moderate state spaces (USD, 4-state majority, ...);
//   * virtual — f is invoked through the Protocol vtable; needed for state
//     spaces too large to tabulate (e.g. quantized averaging with m ≈ n).
//
// The engine owns the configuration, the pair sampler and the RNG, so a
// Simulator is a self-contained, restartable experiment. Stopping times are
// exact: the engine keeps a *witness*, one present ordered pair whose
// transition is not null. A state-changing step re-checks it in O(1); only
// when the witness is no longer applicable are the present states rescanned
// for a new one, and finding none means the configuration is stable. The
// present states are a swap-remove list that changes only when a count
// crosses 0↔1, so the rescan never visits an empty state.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/protocol.hpp"
#include "ppsim/core/recorder.hpp"
#include "ppsim/core/scheduler.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/util/check.hpp"  // CheckFailure, thrown by the members below
#include "ppsim/util/rng.hpp"

namespace ppsim {

/// Outcome of a bounded run.
struct RunOutcome {
  bool stabilized = false;
  Interactions interactions = 0;             ///< attempted interactions so far
  /// Interactions the engine attempted but could not realise (τ-leaping
  /// overdraw clamped to live counts). Always 0 for the exact sequential
  /// engines; for the round kinds (batched, collapsed), `interactions -
  /// clamped` is the effective count — report both so throughput numbers
  /// are honest.
  Interactions clamped = 0;
  std::optional<Opinion> consensus;          ///< output all agents agree on, if any
};

class Simulator {
 public:
  enum class Engine { kTable, kVirtual };

  /// The protocol must outlive the simulator.
  Simulator(const Protocol& protocol, Configuration initial, std::uint64_t seed,
            Engine engine = Engine::kTable);

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

  /// True iff no applicable pair can change any state. O(1).
  bool is_stable() const noexcept { return stable_; }

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

  /// Moves one agent in the configuration, the sampler and the present list.
  void move_agent(State from, State to);
  /// True iff two distinct agents can be drawn in states (a, b).
  bool applicable(State a, State b) const noexcept {
    const auto& counts = config_.counts();
    return counts[a] > 0 && counts[b] > (a == b ? 1 : 0);
  }
  /// Rescans the present states for a witness; sets stable_ if none.
  void find_witness();

  const Protocol& protocol_;
  std::optional<TransitionTable> table_;  // engaged in kTable mode
  Configuration config_;
  PairSampler sampler_;
  Xoshiro256pp rng_;
  Interactions interactions_ = 0;
  Recorder* recorder_ = nullptr;
  std::vector<State> present_;      // states with a nonzero count, any order
  std::vector<std::size_t> slot_;   // slot_[s] = index of s in present_
  State witness_a_ = 0;             // a present non-null pair, unless stable_
  State witness_b_ = 0;
  bool stable_ = false;
};

}  // namespace ppsim
