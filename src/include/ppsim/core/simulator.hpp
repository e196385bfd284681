// Exact sequential-interaction engine for arbitrary population protocols.
//
// Two dispatch modes share one implementation:
//   * table-driven (default) — f is compiled into a dense TransitionTable;
//     best for small-to-moderate state spaces (USD, 4-state majority, ...);
//   * virtual — f is invoked through the Protocol vtable; needed for state
//     spaces too large to tabulate (e.g. quantized averaging with m ≈ n).
//
// The engine owns the configuration, the pair sampler and the RNG, so a
// Simulator is a self-contained, restartable experiment. Stabilization
// checks run every `stability_check_stride` interactions (exactness is not
// affected: stability is absorbing, so late detection only costs time).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/protocol.hpp"
#include "ppsim/core/recorder.hpp"
#include "ppsim/core/scheduler.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/core/types.hpp"
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
  bool step();

  /// Runs until the protocol stabilizes or `max_interactions` total
  /// interactions have been performed (counted from construction).
  RunOutcome run_until_stable(Interactions max_interactions);

  /// Runs until `predicate(config, interactions)` is true (checked after
  /// every interaction), the protocol stabilizes (checked every
  /// `stability_check_stride` interactions — once stable the configuration
  /// is frozen, so an unfired configuration predicate never fires), or the
  /// budget is exhausted. Returns the outcome; `stabilized` reflects
  /// protocol stability at exit.
  RunOutcome run_until(
      const std::function<bool(const Configuration&, Interactions)>& predicate,
      Interactions max_interactions);

  /// True iff no applicable pair can change any state.
  bool is_stable() const;

  /// If every agent's output is the same committed opinion, returns it.
  std::optional<Opinion> consensus_output() const;

  /// How often run_until_stable re-checks stability (default: population
  /// size, i.e. once per parallel time unit).
  void set_stability_check_stride(Interactions stride);

  /// Streams strided samples (and, when the recorder has a checkpoint
  /// stride, full engine snapshots) from inside the run loops. Not owned;
  /// nullptr detaches. The recorder must outlive the run calls.
  void set_recorder(Recorder* recorder) noexcept { recorder_ = recorder; }

  /// Everything needed to continue this run in another process: counts,
  /// RNG state, interaction clock (the PairSampler is rebuilt from counts).
  EngineCheckpoint checkpoint_state() const;

  /// Restores a state captured by checkpoint_state() on an engine built
  /// with the same protocol and state-space shape. After restoring, the
  /// run continues on exactly the sequence of draws the original would
  /// have made.
  void restore_checkpoint(const EngineCheckpoint& state);

 private:
  void observe() {
    if (recorder_ == nullptr) return;
    recorder_->maybe_sample(config_, interactions_);
    if (recorder_->checkpoint_due(interactions_)) {
      recorder_->record_checkpoint(checkpoint_state());
    }
  }

  const Protocol& protocol_;
  std::optional<TransitionTable> table_;  // engaged in kTable mode
  Configuration config_;
  PairSampler sampler_;
  Xoshiro256pp rng_;
  Interactions interactions_ = 0;
  Interactions stability_stride_;
  Recorder* recorder_ = nullptr;
};

}  // namespace ppsim
