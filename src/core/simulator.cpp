#include "ppsim/core/simulator.hpp"

#include "ppsim/util/check.hpp"

namespace ppsim {

Simulator::Simulator(const UndecidedStateDynamics& usd, Configuration initial,
                     std::uint64_t seed)
    : config_(std::move(initial)), sampler_(config_), rng_(seed) {
  PPSIM_CHECK(config_.num_states() == usd.num_states(),
              "configuration size must match the protocol's state space");
  surviving_opinions_ = surviving_opinions(config_);
}

// `inline`: step() calls this on every state-changing interaction.
inline void Simulator::move_agent(State from, State to) {
  config_.move_agent(from, to);
  sampler_.move_agent(from, to);
  const auto& counts = config_.counts();
  if (from != UndecidedStateDynamics::kUndecided && counts[from] == 0) {
    --surviving_opinions_;
  }
  if (to != UndecidedStateDynamics::kUndecided && counts[to] == 1) {
    ++surviving_opinions_;
  }
}

bool Simulator::step() {
  constexpr State kUndecided = UndecidedStateDynamics::kUndecided;
  const auto [a, b] = sampler_.sample(rng_);
  ++interactions_;
  if (a == b) return false;  // same opinion, or both undecided
  if (a == kUndecided) {
    move_agent(a, b);  // the initiator adopts the responder's opinion
  } else if (b == kUndecided) {
    move_agent(b, a);  // the responder adopts the initiator's opinion
  } else {
    move_agent(a, kUndecided);  // a clash: both become undecided
    move_agent(b, kUndecided);
  }
  return true;
}

RunOutcome Simulator::run_until_stable(Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  while (interactions_ < max_interactions && !is_stable()) {
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
    if (is_stable()) break;
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
  // Every agent outputs the same opinion iff none is undecided and exactly
  // one opinion is present.
  const auto& counts = config_.counts();
  if (surviving_opinions_ != 1 || counts[UndecidedStateDynamics::kUndecided] > 0) {
    return std::nullopt;
  }
  State s = 1;
  while (counts[s] == 0) ++s;
  return static_cast<Opinion>(s - 1);
}

EngineCheckpoint Simulator::checkpoint_state() const {
  EngineCheckpoint cp;
  cp.counts = config_.counts();
  cp.rng_state = rng_.state();
  cp.interactions = interactions_;
  return cp;
}

}  // namespace ppsim
