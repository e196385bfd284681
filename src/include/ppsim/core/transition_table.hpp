// Dense S×S transition table compiled from a Protocol, with precomputed
// knowledge of which ordered pairs are "null" (leave both states
// unchanged): a configuration is stable iff every pair of present states is
// null.
//
// No engine uses it: both engines apply USD's rules directly. Only perfbench
// (its pair-law and stability rows) and the tests still compile tables.
#pragma once

#include <memory>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/protocol.hpp"
#include "ppsim/core/types.hpp"

namespace ppsim {

class TransitionTable {
 public:
  /// Compiles the protocol's transition function. Cost O(S²) in time and
  /// memory, so S is capped at 2^14.
  explicit TransitionTable(const Protocol& protocol);

  std::size_t num_states() const noexcept { return num_states_; }

  /// f(a, b) for the ordered pair.
  Transition apply(State a, State b) const noexcept {
    return table_[index(a, b)];
  }

  /// True iff f(a, b) leaves both participants unchanged.
  bool is_null(State a, State b) const noexcept { return null_[index(a, b)]; }

  /// True iff no applicable pair in `config` can change any state, i.e. the
  /// configuration is stable in the sense of the paper ("the output of the
  /// system does not change anymore"). O(S²) worst case, but skips states
  /// with zero count.
  bool is_stable(const Configuration& config) const;

 private:
  std::size_t index(State a, State b) const noexcept {
    return static_cast<std::size_t>(a) * num_states_ + b;
  }

  std::size_t num_states_;
  std::vector<Transition> table_;
  std::vector<char> null_;  // char, not bool: avoids bitset proxy on hot path
};

}  // namespace ppsim
