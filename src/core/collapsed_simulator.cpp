#include "ppsim/core/collapsed_simulator.hpp"

#include <algorithm>
#include <cmath>

#include "ppsim/util/check.hpp"

namespace ppsim {

CollapsedSimulator::CollapsedSimulator(const UndecidedStateDynamics& usd,
                                       Configuration initial, std::uint64_t seed,
                                       Options options)
    : config_(std::move(initial)),
      rng_(seed),
      options_(options),
      kernel_(&kernels::resolve(options.kernel)) {
  PPSIM_CHECK(config_.num_states() == usd.num_states(),
              "configuration size must match the protocol's state space");
  PPSIM_CHECK(config_.population() >= 2, "population must have at least two agents");
  PPSIM_CHECK(config_.population() <= kMaxPopulation,
              "population exceeds 2^53: counts would lose exactness in the "
              "double-precision pair weights");
  PPSIM_CHECK(options_.tau_epsilon > 0.0 && options_.tau_epsilon <= 1.0,
              "tau_epsilon must be in (0, 1]");
  PPSIM_CHECK(options_.fixed_round >= 0, "fixed_round must be non-negative");
  surviving_opinions_ = surviving_opinions(config_);
}

CollapsedSimulator::CollapsedSimulator(const UndecidedStateDynamics& usd,
                                       Configuration initial, std::uint64_t seed)
    : CollapsedSimulator(usd, std::move(initial), seed, Options()) {}

void CollapsedSimulator::refresh_law() {
  if (law_generation_ == counts_generation_) return;
  law_.rebuild(config_);
  law_generation_ = counts_generation_;
}

Interactions CollapsedSimulator::choose_tau(Interactions budget) const {
  const auto n = static_cast<double>(config_.population());
  // Aggregate staleness cap: at most an ε fraction of all agents interact
  // within one round.
  double tau = options_.tau_epsilon * n;
  const auto& counts = config_.counts();
  for (std::size_t s = 0; s < law_.num_states(); ++s) {
    if (law_.consumption(s) <= 0.0) continue;
    // consumption(s) / total_weight = expected agents of s removed per
    // interaction; bound the round's expected drain to ε·c_s.
    const double per_state = options_.tau_epsilon *
                             static_cast<double>(counts[s]) *
                             law_.total_weight() / law_.consumption(s);
    tau = std::min(tau, per_state);
  }
  return tau >= static_cast<double>(budget)
             ? budget
             : std::max<Interactions>(1, static_cast<Interactions>(tau));
}

bool CollapsedSimulator::stage_round(Interactions max_interactions,
                                     kernels::RoundTask& task) {
  refresh_law();

  if (law_.empty()) {
    // Stable: every interaction is null, so leaping over the entire budget
    // is exact (no count can ever change again).
    interactions_ = sat_add(interactions_, max_interactions);
    last_round_size_ = max_interactions;
    return false;
  }

  const Interactions batch =
      options_.fixed_round > 0 ? std::min(options_.fixed_round, max_interactions)
                               : choose_tau(max_interactions);
  last_round_size_ = batch;
  interactions_ = sat_add(interactions_, batch);

  if (batch == 1) {
    // Exact single-draw path: Bernoulli(active/total) selects "some non-null
    // pair", then the alias table picks which one — the product law is
    // exactly w(a,b)/n(n−1). Null draws leave the counts (and therefore the
    // alias table) untouched, so the O(k²) bucket enumeration amortizes
    // over them.
    if (rng_.bernoulli(law_.active_weight() / law_.total_weight())) {
      const kernels::ApplyResult applied =
          kernels::apply_one(law_, config_, law_.alias().sample(rng_), 1);
      clamped_ = sat_add(clamped_, applied.clamped);
      if (applied.moved) touch_counts();
    }
    return false;
  }

  task.law = &law_;
  task.batch = batch;
  task.rng = &rng_;
  task.draws = &draws_;
  task.active = 0;
  return true;
}

void CollapsedSimulator::commit_round(const kernels::RoundTask& task) {
  if (task.active == 0) return;
  const kernels::ApplyResult applied =
      kernels::apply_round(config_, task.active, *task.draws);
  clamped_ = sat_add(clamped_, applied.clamped);
  if (applied.moved) touch_counts();
}

Interactions CollapsedSimulator::step_round(Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  if (max_interactions == 0) return 0;
  // Identical-distribution batch rounds go stage → kernel → commit: all
  // `batch` draws see the start-of-round counts; the kernel draws the
  // round's adoptions and clash endpoints per opinion, and the commit
  // applies them clamped to the live counts.
  kernels::RoundTask task;
  if (stage_round(max_interactions, task)) {
    kernel_->advance(task);
    commit_round(task);
  }
  return last_round_size_;
}

RunOutcome CollapsedSimulator::run_until_stable(Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  while (interactions_ < max_interactions) {
    if (is_stable()) break;
    step_round(max_interactions - interactions_);
    observe();
  }
  return outcome();
}

RunOutcome CollapsedSimulator::run_until(
    const std::function<bool(const Configuration&, Interactions)>& predicate,
    Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  while (interactions_ < max_interactions && !predicate(config_, interactions_)) {
    if (is_stable()) break;
    step_round(max_interactions - interactions_);
    observe();
  }
  return outcome();
}

EngineCheckpoint CollapsedSimulator::checkpoint_state() const {
  EngineCheckpoint cp;
  cp.counts = config_.counts();
  cp.rng_state = rng_.state();
  cp.interactions = interactions_;
  cp.clamped = clamped_;
  return cp;
}

RunOutcome CollapsedSimulator::outcome() const {
  RunOutcome out;
  out.stabilized = is_stable();
  out.interactions = interactions_;
  out.clamped = clamped_;
  out.consensus = consensus_output();
  return out;
}

}  // namespace ppsim
