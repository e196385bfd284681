// One switchable front door for the generic simulation engines.
//
// The library has two engines: the exact sequential Simulator and the
// counts-space round engine CollapsedSimulator (adaptive or fixed-length
// rounds). EngineKind names the three ways to run a Protocol on them. Sweep
// trial functions, the benches and examples/ppsim_run select one with an
// EngineKind value instead of hard-coding an engine type; Engine forwards
// the shared surface (run_until_stable / run_until / RunOutcome /
// observables) to whichever implementation the kind names.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <variant>

#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/configuration.hpp"
#include "ppsim/core/protocol.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/core/types.hpp"

namespace ppsim {

enum class EngineKind {
  kSequential,  ///< Simulator, one interaction per step (exact)
  kBatched,    ///< CollapsedSimulator, fixed rounds of max(1, n/round_divisor)
  kCollapsed,  ///< CollapsedSimulator, adaptive τ rounds
};

/// "sequential" | "batched" | "collapsed" (flag values for benches/examples).
std::string to_string(EngineKind kind);

/// Inverse of to_string; nullopt for unknown names.
std::optional<EngineKind> parse_engine(const std::string& name);

class Engine {
 public:
  /// The protocol must outlive the engine. `options` applies to the round
  /// kinds: kCollapsed uses it as given; kBatched keeps its kernel and
  /// replaces fixed_round by max(1, n / round_divisor), where round_divisor
  /// must be positive. kSequential ignores both.
  Engine(EngineKind kind, const Protocol& protocol, Configuration initial,
         std::uint64_t seed, CollapsedSimulator::Options options = {},
         Interactions round_divisor = 16);

  EngineKind kind() const noexcept { return kind_; }
  const Configuration& configuration() const;
  Interactions interactions() const;
  /// Attempted-but-unrealised interactions (τ-leaping overdraw); 0 for the
  /// exact sequential engine. See RunOutcome::clamped.
  Interactions clamped_interactions() const;
  double parallel_time() const;

  RunOutcome run_until_stable(Interactions max_interactions);
  /// Note: the round kinds (kBatched, kCollapsed) check the predicate once
  /// per round, the sequential engine once per interaction.
  RunOutcome run_until(
      const std::function<bool(const Configuration&, Interactions)>& predicate,
      Interactions max_interactions);
  bool is_stable() const;
  std::optional<Opinion> consensus_output() const;

  /// Streams strided samples (plus engine checkpoints when the recorder has
  /// a checkpoint stride) from inside the run loops: the sequential engine
  /// observes once per interaction, the round kinds once per round. Not
  /// owned; nullptr detaches; the recorder must outlive the run calls.
  void set_recorder(Recorder* recorder);

  /// Full mutable engine state (counts, RNG, interaction clock) — the
  /// payload of the trajectory archive's checkpoint records.
  EngineCheckpoint checkpoint_state() const;

 private:
  EngineKind kind_;
  std::variant<Simulator, CollapsedSimulator> impl_;
};

}  // namespace ppsim
