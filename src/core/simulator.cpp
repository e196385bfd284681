#include "ppsim/core/simulator.hpp"

#include "ppsim/util/check.hpp"

namespace ppsim {

Simulator::Simulator(const Protocol& protocol, Configuration initial,
                     std::uint64_t seed, Engine engine)
    : protocol_(protocol),
      config_(std::move(initial)),
      sampler_(config_),
      rng_(seed) {
  PPSIM_CHECK(config_.num_states() == protocol.num_states(),
              "configuration size must match the protocol's state space");
  if (engine == Engine::kTable) table_.emplace(protocol);
  const auto& counts = config_.counts();
  slot_.assign(counts.size(), 0);
  for (State s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    slot_[s] = present_.size();
    present_.push_back(s);
  }
  find_witness();
}

// `inline`: step() calls this on every state-changing interaction.
inline void Simulator::move_agent(State from, State to) {
  config_.move_agent(from, to);
  sampler_.move_agent(from, to);
  const auto& counts = config_.counts();
  if (counts[from] == 0) {  // swap-remove `from` from the present list
    const State last = present_.back();
    present_[slot_[from]] = last;
    slot_[last] = slot_[from];
    present_.pop_back();
  }
  if (counts[to] == 1) {
    slot_[to] = present_.size();
    present_.push_back(to);
  }
}

bool Simulator::step() {
  const auto [a, b] = sampler_.sample(rng_);
  const Transition t = table_ ? table_->apply(a, b) : protocol_.apply(a, b);
  ++interactions_;
  if (t.initiator == a && t.responder == b) return false;
  if (t.initiator != a) move_agent(a, t.initiator);
  if (t.responder != b) move_agent(b, t.responder);
  // Counts fell only in states a and b, and a witness needs at most two
  // agents per state, so it can only have broken if a or b is down to one.
  // (A stable configuration never gets here: every present pair is null.)
  const auto& counts = config_.counts();
  if ((counts[a] <= 1 || counts[b] <= 1) && !applicable(witness_a_, witness_b_)) {
    find_witness();
  }
  return true;
}

void Simulator::find_witness() {
  for (const State a : present_) {
    for (const State b : present_) {
      if (!applicable(a, b)) continue;
      const bool null = table_ ? table_->is_null(a, b) : [&] {
        const Transition t = protocol_.apply(a, b);
        return t.initiator == a && t.responder == b;
      }();
      if (!null) {
        witness_a_ = a;
        witness_b_ = b;
        stable_ = false;
        return;
      }
    }
  }
  stable_ = true;
}

RunOutcome Simulator::run_until_stable(Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  while (interactions_ < max_interactions && !stable_) {
    step();
    observe();
  }
  RunOutcome out;
  out.stabilized = is_stable();
  out.interactions = interactions_;
  out.consensus = consensus_output();
  return out;
}

RunOutcome Simulator::run_until(
    const std::function<bool(const Configuration&, Interactions)>& predicate,
    Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  while (interactions_ < max_interactions &&
         !predicate(config_, interactions_)) {
    // Stop on stability like run_until_stable (and CollapsedSimulator::
    // run_until): once stable the configuration never changes again, so a
    // configuration predicate that has not fired never will.
    if (stable_) break;
    step();
    observe();
  }
  RunOutcome out;
  out.stabilized = is_stable();
  out.interactions = interactions_;
  out.consensus = consensus_output();
  return out;
}

std::optional<Opinion> Simulator::consensus_output() const {
  return ppsim::consensus_output(protocol_, config_);
}

EngineCheckpoint Simulator::checkpoint_state() const {
  EngineCheckpoint cp;
  cp.counts = config_.counts();
  cp.rng_state = rng_.state();
  cp.interactions = interactions_;
  return cp;
}

}  // namespace ppsim
