// One switchable front door for the two USD engines.
//
// The library has two engines: the exact sequential Simulator and the
// counts-space round engine CollapsedSimulator (adaptive τ-leap rounds).
// EngineKind names the two ways to run USD on them. Sweep
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
#include "ppsim/core/simulator.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/protocols/usd.hpp"

namespace ppsim {

enum class EngineKind {
  kSequential,  ///< Simulator, exact: steps or batches
  kCollapsed,   ///< CollapsedSimulator, adaptive τ rounds
};

/// "sequential" | "collapsed" (flag values for benches/examples).
std::string to_string(EngineKind kind);

/// The engine an `--engine` value names at population n: "sequential",
/// "collapsed", or "auto", which is collapsed above n = 10^7 (where the
/// per-agent engine takes minutes per trial) and sequential otherwise.
/// Throws CheckFailure for any other name.
EngineKind resolve_engine(const std::string& name, Count n);

class Engine {
 public:
  /// The protocol must outlive the engine. kCollapsed runs with `options`
  /// as given; kSequential ignores them.
  Engine(EngineKind kind, const UndecidedStateDynamics& usd, Configuration initial,
         std::uint64_t seed, CollapsedSimulator::Options options = {});

  EngineKind kind() const noexcept { return kind_; }
  const Configuration& configuration() const;
  Interactions interactions() const;
  /// Attempted-but-unrealised interactions (τ-leaping overdraw); 0 for the
  /// exact sequential engine. See RunOutcome::clamped.
  Interactions clamped_interactions() const;
  double parallel_time() const;

  /// Chunking contract (kSequential): calls with budgets n, 2n, 3n, …
  /// (whole units of parallel time) make the same draws, and end on the
  /// same interaction and configuration, as one call with the last budget;
  /// see Simulator::run_until_stable. kCollapsed makes no such promise: a
  /// budget cuts its round.
  RunOutcome run_until_stable(Interactions max_interactions);
  /// Note: kCollapsed checks the predicate once per round, the sequential
  /// engine once per interaction (run_until never batches).
  RunOutcome run_until(
      const std::function<bool(const Configuration&, Interactions)>& predicate,
      Interactions max_interactions);
  bool is_stable() const;
  std::optional<Opinion> consensus_output() const;

  /// Streams strided samples (plus engine checkpoints when the recorder has
  /// a checkpoint stride) from inside the run loops: the sequential engine
  /// observes once per interaction or batch, kCollapsed once per round. Not
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
