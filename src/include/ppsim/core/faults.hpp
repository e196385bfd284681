// Fault injection for population protocols.
//
// The stabilization guarantees in the paper (and this library) are proved
// for a fault-free scheduler. Real deployments — sensor networks, chemical
// computers — see transient state corruption. This module injects faults
// into a Simulator run of USD so the protocol's *self-stabilization* behaviour can
// be measured (bench_fault_tolerance):
//
//   * transient corruption: at rate `rate` per interaction, one uniformly
//     random agent's state is replaced by a uniformly random *different*
//     state (opinion or ⊥). This models bit-flips / sensing glitches. Every
//     fired Bernoulli moves exactly one agent, so the realised corruption
//     count concentrates around rate · interactions (faults_test pins the
//     target-state distribution with a chi-square test).
//
// Two facts worth measuring (and tested in faults_test.cpp):
//   * under any positive corruption rate, USD never formally stabilizes
//     (corruption can always revive an extinct opinion), but it holds a
//     large *near-consensus* majority once the fault-free dynamics would
//     have stabilized;
//   * after corruption stops, USD stabilizes from whatever configuration
//     the faults left behind — the dynamics themselves are self-stabilizing
//     for plurality (modulo which opinion wins).
//
// The injector owns the fault randomness (separate stream from the engine's
// scheduler, so fault patterns are reproducible independently of the
// trajectory randomness).
#pragma once

#include <cstdint>

#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/configuration.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {

class UsdFaultInjector {
 public:
  /// `rate` = expected corruptions per interaction, in [0, 1].
  UsdFaultInjector(double rate, std::uint64_t seed);

  double rate() const noexcept { return rate_; }
  Interactions corruptions() const noexcept { return corruptions_; }

  /// Possibly corrupts one agent of the engine (call once per interaction).
  /// Returns true iff a corruption was injected, i.e. iff the Bernoulli(rate)
  /// draw fired — a fired draw always moves an agent.
  bool maybe_corrupt(Simulator& sim);

  /// Runs the engine for exactly `interactions` interactions with fault
  /// injection interleaved (the engine's is_stable() state is ignored —
  /// faults can always re-activate the dynamics).
  void run(Simulator& sim, Interactions interactions);

 private:
  double rate_;
  Xoshiro256pp rng_;
  Interactions corruptions_ = 0;
};

/// Counts-space sibling of UsdFaultInjector for EngineKind::kCollapsed:
/// the same per-interaction corruption law (Bernoulli(rate) per interaction;
/// victim uniform over agents; target uniform over the other S − 1 states),
/// applied in windows so the collapsed engine's τ-leaping rounds stay
/// batched. apply_window draws the number of corruptions in a `window` of
/// interactions from the exact Binomial(window, rate) and places each one
/// individually — so the realised corruption rate matches the agent-space
/// injector's (faults_test pins the parity).
class CountsFaultInjector {
 public:
  /// `rate` = expected corruptions per interaction, in [0, 1].
  CountsFaultInjector(double rate, std::uint64_t seed);

  double rate() const noexcept { return rate_; }
  Interactions corruptions() const noexcept { return corruptions_; }

  /// Injects Binomial(window, rate) corruptions into the simulator's counts
  /// (call once per completed round of `window` interactions). Returns the
  /// number injected.
  Interactions apply_window(CollapsedSimulator& sim, Interactions window);

  /// Runs the simulator for exactly `interactions` interactions, alternating
  /// engine rounds with corruption windows of the realised round length
  /// (stability is ignored — faults can re-activate the dynamics).
  void run(CollapsedSimulator& sim, Interactions interactions);

 private:
  double rate_;
  Xoshiro256pp rng_;
  Interactions corruptions_ = 0;
};

/// Fraction of agents on the most common opinion (undecided agents count
/// against it) of a USD-layout configuration: the "near-consensus quality"
/// metric used by the fault benches. 1.0 = perfect consensus.
double consensus_quality(const Configuration& config);

}  // namespace ppsim
