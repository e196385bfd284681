#include "ppsim/core/graph_simulator.hpp"

#include "ppsim/util/check.hpp"

namespace ppsim {

GraphSimulator::GraphSimulator(const Protocol& protocol, const InteractionGraph& graph,
                               std::vector<State> initial_states, std::uint64_t seed)
    : protocol_(protocol),
      graph_(graph),
      table_(protocol),
      states_(std::move(initial_states)),
      counts_(protocol.num_states(), 0),
      rng_(seed) {
  PPSIM_CHECK(states_.size() == graph.num_nodes(),
              "need exactly one initial state per node");
  for (const State s : states_) {
    PPSIM_CHECK(s < protocol.num_states(), "initial state out of range");
    ++counts_[s];
  }
}

State GraphSimulator::state_of(NodeId v) const {
  PPSIM_CHECK(v < states_.size(), "node out of range");
  return states_[v];
}

Count GraphSimulator::count(State s) const {
  PPSIM_CHECK(s < counts_.size(), "state out of range");
  return counts_[s];
}

bool GraphSimulator::step() {
  const auto& [a, b] = graph_.sample_edge(rng_);
  // Uniform orientation: either endpoint may be the initiator.
  const bool swap = (rng_() & 1) != 0;
  const NodeId init = swap ? b : a;
  const NodeId resp = swap ? a : b;
  const Transition t = table_.apply(states_[init], states_[resp]);
  ++interactions_;
  bool changed = false;
  if (t.initiator != states_[init]) {
    --counts_[states_[init]];
    ++counts_[t.initiator];
    states_[init] = t.initiator;
    changed = true;
  }
  if (t.responder != states_[resp]) {
    --counts_[states_[resp]];
    ++counts_[t.responder];
    states_[resp] = t.responder;
    changed = true;
  }
  return changed;
}

bool GraphSimulator::is_stable() const {
  for (std::size_t e = 0; e < graph_.num_edges(); ++e) {
    const auto& [a, b] = graph_.edge(e);
    if (!table_.is_null(states_[a], states_[b])) return false;
    if (!table_.is_null(states_[b], states_[a])) return false;
  }
  return true;
}

bool GraphSimulator::run_until_stable(Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  while (interactions_ < max_interactions) {
    if (is_stable()) return true;
    const Interactions chunk =
        std::min(population(), max_interactions - interactions_);
    for (Interactions i = 0; i < chunk; ++i) step();
  }
  return is_stable();
}

std::optional<Opinion> GraphSimulator::consensus_output() const {
  std::optional<Opinion> agreed;
  for (State s = 0; s < counts_.size(); ++s) {
    if (counts_[s] == 0) continue;
    const std::optional<Opinion> o = protocol_.output(s);
    if (!o.has_value()) return std::nullopt;
    if (agreed.has_value() && *agreed != *o) return std::nullopt;
    agreed = o;
  }
  return agreed;
}

}  // namespace ppsim
