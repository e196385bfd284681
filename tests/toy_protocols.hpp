// Small generic protocols, chosen for the shapes of their transition
// functions rather than for any result. Both engines run USD alone, so no
// engine test uses them any more (ROADMAP item 14 retires them):
//   * Epidemic — one-way broadcast, mirrored rules, 2 states;
//   * LeaderElection — a non-null diagonal (L, L) -> (L, F);
//   * FourStateMajority — mirrored rules with three reacting unordered pairs;
//   * Voter — f(b, a) is not the mirror of f(a, b).
// toy_protocols_test.cpp pins the LeaderElection and FourStateMajority
// rules.
#pragma once

#include <optional>
#include <string>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/protocol.hpp"

namespace ppsim::toy {

/// (I, S) -> (I, I) and (S, I) -> (I, I); everything else is null.
class Epidemic final : public Protocol {
 public:
  static constexpr State kSusceptible = 0;
  static constexpr State kInfected = 1;

  std::size_t num_states() const override { return 2; }
  Transition apply(State initiator, State responder) const override {
    if (initiator == kInfected || responder == kInfected) {
      return {kInfected, kInfected};
    }
    return {initiator, responder};
  }
  std::optional<Opinion> output(State s) const override { return s; }
  std::string name() const override { return "epidemic"; }
};

/// Fratricide: (L, L) -> (L, F); everything else is null.
class LeaderElection final : public Protocol {
 public:
  static constexpr State kFollower = 0;
  static constexpr State kLeader = 1;

  std::size_t num_states() const override { return 2; }
  Transition apply(State initiator, State responder) const override {
    if (initiator == kLeader && responder == kLeader) return {kLeader, kFollower};
    return {initiator, responder};
  }
  std::optional<Opinion> output(State s) const override { return s; }
  std::string name() const override { return "leader-election"; }

  /// Every agent starts as a leader.
  static Configuration initial(Count n) { return Configuration({0, n}); }
};

/// Strong A/B and weak a/b: (A, B) -> (a, b), (A, b) -> (A, a) and
/// (B, a) -> (B, b), in either order; everything else is null.
class FourStateMajority final : public Protocol {
 public:
  static constexpr State kStrongA = 0;
  static constexpr State kStrongB = 1;
  static constexpr State kWeakA = 2;
  static constexpr State kWeakB = 3;
  static constexpr Opinion kOpinionA = 0;
  static constexpr Opinion kOpinionB = 1;

  std::size_t num_states() const override { return 4; }
  Transition apply(State initiator, State responder) const override {
    const bool ordered = initiator <= responder;
    const State x = ordered ? initiator : responder;
    const State y = ordered ? responder : initiator;
    const auto oriented = [&](State nx, State ny) {
      return ordered ? Transition{nx, ny} : Transition{ny, nx};
    };
    if (x == kStrongA && y == kStrongB) return oriented(kWeakA, kWeakB);
    if (x == kStrongA && y == kWeakB) return oriented(kStrongA, kWeakA);
    if (x == kStrongB && y == kWeakA) return oriented(kStrongB, kWeakB);
    return {initiator, responder};
  }
  std::optional<Opinion> output(State s) const override {
    return (s == kStrongA || s == kWeakA) ? 0 : 1;
  }
  std::string name() const override { return "four-state-majority"; }
};

/// (a, b) -> (a, a): the initiator converts the responder. f(b, a) = (b, b)
/// is not the mirror of f(a, b).
class Voter final : public Protocol {
 public:
  std::size_t num_states() const override { return 3; }
  Transition apply(State initiator, State) const override {
    return {initiator, initiator};
  }
  std::optional<Opinion> output(State s) const override { return s; }
  std::string name() const override { return "voter"; }
};

}  // namespace ppsim::toy
