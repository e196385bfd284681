// A population configuration: how many of the n (anonymous) agents are in
// each protocol state. The class maintains two invariants established at
// construction and preserved by every mutator:
//   1. every per-state count is non-negative;
//   2. the total population size never changes — move_agent preserves it
//      exactly, and assign_counts re-checks it.
#pragma once

#include <string>
#include <vector>

#include "ppsim/core/types.hpp"

namespace ppsim {

class Configuration {
 public:
  /// Builds a configuration from per-state counts (size = |Σ|).
  /// Throws CheckFailure on negative counts or an empty state space.
  explicit Configuration(std::vector<Count> counts);

  /// All agents in a single state.
  static Configuration monochromatic(std::size_t num_states, State s, Count n);

  std::size_t num_states() const noexcept { return counts_.size(); }
  Count population() const noexcept { return population_; }

  Count count(State s) const;
  const std::vector<Count>& counts() const noexcept { return counts_; }

  /// Moves one agent from state `from` to state `to`; a self-move is a
  /// no-op. Throws CheckFailure if a state is out of range or no agent is in
  /// `from`.
  void move_agent(State from, State to);

  /// Replaces every count at once: the round engines' one-pass commit. One
  /// pass re-checks both invariants — `counts` has num_states() entries, none
  /// negative, summing to population() — and throws CheckFailure otherwise,
  /// leaving this configuration unchanged.
  void assign_counts(std::vector<Count> counts);

  /// True iff all agents share one state.
  bool is_monochromatic() const noexcept;

  /// State with the largest count (smallest index wins ties).
  State argmax() const noexcept;

  /// Number of states with a nonzero count.
  std::size_t support_size() const noexcept;

  /// Human-readable rendering "[c0, c1, ...]" for logs and test failures.
  std::string to_string() const;

  friend bool operator==(const Configuration&, const Configuration&) = default;

 private:
  std::vector<Count> counts_;
  Count population_ = 0;
};

}  // namespace ppsim
