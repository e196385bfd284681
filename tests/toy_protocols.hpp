// Small protocols that the engine tests use as generic fixtures, chosen for
// the shapes of their transition functions rather than for any result:
//   * Epidemic — one-way broadcast, mirrored rules, 2 states;
//   * LeaderElection — a non-null diagonal (L, L) -> (L, F);
//   * FourStateMajority — mirrored rules with three reacting unordered pairs;
//   * Voter — f(b, a) is not the mirror of f(a, b);
//   * Averaging — quantized averaging over 2m + 1 states, e.g. 129 for m = 64
//     (more than one 32-wide node of the pair sampler's prefix-sum tree).
// toy_protocols_test.cpp pins each fixture's rules and invariants, so an
// engine test that fails points at the engine, not at its fixture.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/protocol.hpp"
#include "ppsim/util/check.hpp"

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

  /// `sources` infected agents among n.
  static Configuration initial(Count n, Count sources) {
    return Configuration({n - sources, sources});
  }
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

  /// `a` strong-A agents and `b` strong-B agents.
  static Configuration initial(Count a, Count b) {
    return Configuration({a, b, 0, 0});
  }
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

/// Values in [-m, m] (state s is value s - m); a pair is replaced by the
/// ceiling and floor of its average. A pair whose result is the same
/// multiset, such as {v, v + 1}, is null.
class Averaging final : public Protocol {
 public:
  static constexpr Opinion kOpinionA = 0;  ///< positive values
  static constexpr Opinion kOpinionB = 1;  ///< negative values

  explicit Averaging(Count m) : m_(m) { PPSIM_CHECK(m >= 1, "resolution m must be >= 1"); }

  std::size_t num_states() const override {
    return static_cast<std::size_t>(2 * m_ + 1);
  }
  Transition apply(State initiator, State responder) const override {
    const Count v1 = state_value(initiator);
    const Count v2 = state_value(responder);
    const Count sum = v1 + v2;
    const Count lo = sum >= 0 ? sum / 2 : -((-sum + 1) / 2);  // floor
    const Count hi = sum - lo;
    if ((hi == v1 && lo == v2) || (hi == v2 && lo == v1)) {
      return {initiator, responder};
    }
    return {value_state(hi), value_state(lo)};
  }
  std::optional<Opinion> output(State s) const override {
    const Count v = state_value(s);
    if (v == 0) return std::nullopt;
    return v > 0 ? kOpinionA : kOpinionB;
  }
  std::string name() const override { return "averaging-m" + std::to_string(m_); }

  Count state_value(State s) const { return static_cast<Count>(s) - m_; }
  State value_state(Count v) const {
    PPSIM_CHECK(v >= -m_ && v <= m_, "value outside [-m, m]");
    return static_cast<State>(v + m_);
  }

  /// `a` agents at +m and `b` agents at -m.
  Configuration initial(Count a, Count b) const {
    std::vector<Count> counts(num_states(), 0);
    counts[value_state(m_)] = a;
    counts[value_state(-m_)] = b;
    return Configuration(std::move(counts));
  }

  /// The conserved quantity: the sum of all agent values.
  Count value_sum(const Configuration& config) const {
    Count sum = 0;
    for (State s = 0; s < num_states(); ++s) sum += state_value(s) * config.count(s);
    return sum;
  }

 private:
  Count m_;
};

}  // namespace ppsim::toy
