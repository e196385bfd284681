#include "ppsim/core/faults.hpp"

#include "ppsim/util/check.hpp"
#include "ppsim/util/random_variates.hpp"

namespace ppsim {

UsdFaultInjector::UsdFaultInjector(double rate, std::uint64_t seed)
    : rate_(rate), rng_(seed) {
  PPSIM_CHECK(rate >= 0.0 && rate <= 1.0, "corruption rate must be in [0, 1]");
}

bool UsdFaultInjector::maybe_corrupt(Simulator& sim) {
  if (rate_ == 0.0 || !rng_.bernoulli(rate_)) return false;

  // Pick a uniformly random *agent* (weighted by current counts) and move
  // it to a uniformly random state among the k+1 USD states.
  const auto& counts = sim.configuration().counts();
  const auto n = static_cast<std::uint64_t>(sim.configuration().population());
  auto victim_index = static_cast<Count>(rng_.bounded(n));
  State from = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (victim_index < counts[s]) {
      from = static_cast<State>(s);
      break;
    }
    victim_index -= counts[s];
  }
  // Sample the target uniformly from the *other* num_states - 1 states, so
  // every fired Bernoulli corrupts exactly one agent. (Sampling over all
  // k+1 states and dropping to == from would silently shrink the effective
  // corruption rate to rate * k/(k+1).)
  auto to = static_cast<State>(rng_.bounded(counts.size() - 1));
  if (to >= from) ++to;
  sim.corrupt_agent(from, to);
  ++corruptions_;
  return true;
}

void UsdFaultInjector::run(Simulator& sim, Interactions interactions) {
  PPSIM_CHECK(interactions >= 0, "interaction budget must be non-negative");
  for (Interactions i = 0; i < interactions; ++i) {
    sim.step();
    maybe_corrupt(sim);
  }
}

CountsFaultInjector::CountsFaultInjector(double rate, std::uint64_t seed)
    : rate_(rate), rng_(seed) {
  PPSIM_CHECK(rate >= 0.0 && rate <= 1.0, "corruption rate must be in [0, 1]");
}

Interactions CountsFaultInjector::apply_window(CollapsedSimulator& sim,
                                               Interactions window) {
  PPSIM_CHECK(window >= 0, "corruption window must be non-negative");
  if (rate_ == 0.0 || window == 0) return 0;
  const auto fired = binomial(rng_, window, rate_);
  for (std::int64_t f = 0; f < fired; ++f) {
    // Same law as UsdFaultInjector::maybe_corrupt, one agent at a time:
    // victim uniform over agents (counts-weighted scan), target uniform over
    // the other S − 1 states so every fired draw corrupts exactly one agent.
    const auto& counts = sim.configuration().counts();
    const auto n = static_cast<std::uint64_t>(sim.configuration().population());
    auto victim_index = static_cast<Count>(rng_.bounded(n));
    State from = 0;
    for (std::size_t s = 0; s < counts.size(); ++s) {
      if (victim_index < counts[s]) {
        from = static_cast<State>(s);
        break;
      }
      victim_index -= counts[s];
    }
    auto to = static_cast<State>(rng_.bounded(counts.size() - 1));
    if (to >= from) ++to;
    sim.corrupt_agents(from, to, 1);
    ++corruptions_;
  }
  return static_cast<Interactions>(fired);
}

void CountsFaultInjector::run(CollapsedSimulator& sim, Interactions interactions) {
  PPSIM_CHECK(interactions >= 0, "interaction budget must be non-negative");
  Interactions done = 0;
  while (done < interactions) {
    const Interactions w = sim.step_round(interactions - done);
    done += w;
    apply_window(sim, w);
  }
}

double consensus_quality(const Configuration& config) {
  return static_cast<double>(max_opinion_count(config)) /
         static_cast<double>(config.population());
}

}  // namespace ppsim
