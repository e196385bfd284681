// Exact sequential engine for population protocols on arbitrary interaction
// graphs (the general Angluin et al. model).
//
// On a graph, anonymous-agent count vectors no longer determine the dynamics
// — *which* agent holds a state matters — so this engine keeps a per-agent
// state array. Each step draws an edge uniformly at random, orients it
// uniformly (initiator/responder), and applies the compiled transition
// table. Cost O(1) per interaction; memory O(n + |E|).
//
// On the clique this process coincides with the counts-based Simulator
// (uniform edge = uniform unordered pair; uniform orientation = uniform
// ordered pair), which the tests exploit for cross-validation.
#pragma once

#include <optional>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/graph.hpp"
#include "ppsim/core/protocol.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {

class GraphSimulator {
 public:
  /// `initial_states[v]` is node v's starting state. The protocol and graph
  /// must outlive the simulator.
  GraphSimulator(const Protocol& protocol, const InteractionGraph& graph,
                 std::vector<State> initial_states, std::uint64_t seed);

  const InteractionGraph& graph() const noexcept { return graph_; }

  Count population() const noexcept { return static_cast<Count>(states_.size()); }
  Interactions interactions() const noexcept { return interactions_; }
  double parallel_time() const noexcept {
    return ppsim::parallel_time(interactions_, population());
  }

  State state_of(NodeId v) const;
  const std::vector<State>& states() const noexcept { return states_; }

  /// Aggregate per-state counts (maintained incrementally; O(S) to copy).
  Configuration configuration() const { return Configuration(counts_); }
  Count count(State s) const;

  /// One interaction: uniform edge, uniform orientation, apply f.
  /// Returns true iff a state changed.
  bool step();

  /// True iff no edge can fire a non-null transition (exact stability on
  /// this topology; O(|E|)).
  bool is_stable() const;

  /// Runs until stable or the budget is reached. Returns true iff stable.
  /// Stability is checked once per parallel-time unit (every n
  /// interactions), so the reported stopping time is rounded up to the next
  /// unit: unlike the clique Simulator's O(1) pair witness, a witness edge
  /// is not O(1) to re-find on dense graphs.
  bool run_until_stable(Interactions max_interactions);

  /// If every node's output is the same committed opinion, returns it.
  std::optional<Opinion> consensus_output() const;

 private:
  const Protocol& protocol_;
  const InteractionGraph& graph_;
  TransitionTable table_;
  std::vector<State> states_;
  std::vector<Count> counts_;
  Xoshiro256pp rng_;
  Interactions interactions_ = 0;
};

}  // namespace ppsim
