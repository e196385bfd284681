#include "ppsim/core/simulator.hpp"

#include "ppsim/util/check.hpp"

namespace ppsim {

Simulator::Simulator(const Protocol& protocol, Configuration initial,
                     std::uint64_t seed, Engine engine)
    : protocol_(protocol),
      config_(std::move(initial)),
      sampler_(config_),
      rng_(seed),
      stability_stride_(config_.population()) {
  PPSIM_CHECK(config_.num_states() == protocol.num_states(),
              "configuration size must match the protocol's state space");
  if (engine == Engine::kTable) table_.emplace(protocol);
}

bool Simulator::step() {
  const auto [a, b] = sampler_.sample(rng_);
  const Transition t = table_ ? table_->apply(a, b) : protocol_.apply(a, b);
  ++interactions_;
  if (t.initiator == a && t.responder == b) return false;
  if (t.initiator != a) {
    config_.move_agent(a, t.initiator);
    sampler_.move_agent(a, t.initiator);
  }
  if (t.responder != b) {
    config_.move_agent(b, t.responder);
    sampler_.move_agent(b, t.responder);
  }
  return true;
}

RunOutcome Simulator::run_until_stable(Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  while (interactions_ < max_interactions) {
    if (is_stable()) break;
    const Interactions chunk =
        std::min(stability_stride_, max_interactions - interactions_);
    for (Interactions i = 0; i < chunk; ++i) {
      step();
      observe();
    }
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
  Interactions next_stability_check = interactions_ + stability_stride_;
  while (interactions_ < max_interactions &&
         !predicate(config_, interactions_)) {
    // Stop on stability like run_until_stable (and CollapsedSimulator::
    // run_until): once stable the configuration never changes again, so a
    // configuration predicate that has not fired never will.
    if (interactions_ >= next_stability_check) {
      if (is_stable()) break;
      next_stability_check = interactions_ + stability_stride_;
    }
    step();
    observe();
  }
  RunOutcome out;
  out.stabilized = is_stable();
  out.interactions = interactions_;
  out.consensus = consensus_output();
  return out;
}

bool Simulator::is_stable() const {
  if (table_) return table_->is_stable(config_);
  // Virtual mode: same pair scan as TransitionTable::is_stable but through
  // the vtable. O(S²) — acceptable because stability checks are strided.
  const auto& counts = config_.counts();
  const auto s = static_cast<State>(config_.num_states());
  for (State a = 0; a < s; ++a) {
    if (counts[a] == 0) continue;
    for (State b = 0; b < s; ++b) {
      if (counts[b] == 0) continue;
      if (a == b && counts[a] < 2) continue;
      const Transition t = protocol_.apply(a, b);
      if (t.initiator != a || t.responder != b) return false;
    }
  }
  return true;
}

std::optional<Opinion> Simulator::consensus_output() const {
  return ppsim::consensus_output(protocol_, config_);
}

void Simulator::set_stability_check_stride(Interactions stride) {
  PPSIM_CHECK(stride > 0, "stability check stride must be positive");
  stability_stride_ = stride;
}

EngineCheckpoint Simulator::checkpoint_state() const {
  EngineCheckpoint cp;
  cp.counts = config_.counts();
  cp.rng_state = rng_.state();
  cp.interactions = interactions_;
  return cp;
}

void Simulator::restore_checkpoint(const EngineCheckpoint& state) {
  PPSIM_CHECK(state.counts.size() == config_.num_states(),
              "checkpoint state-space size must match the engine's");
  Configuration restored(state.counts);
  PPSIM_CHECK(restored.population() == config_.population(),
              "checkpoint population must match the engine's");
  config_ = std::move(restored);
  sampler_ = PairSampler(config_);
  rng_.set_state(state.rng_state);
  PPSIM_CHECK(state.interactions >= 0, "checkpoint clock must be non-negative");
  interactions_ = state.interactions;
}

}  // namespace ppsim
