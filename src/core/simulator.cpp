#include "ppsim/core/simulator.hpp"

#include <algorithm>

#include "ppsim/util/check.hpp"
#include "ppsim/util/random_variates.hpp"

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
  if (!sampler_stale_) sampler_.move_agent(from, to);
  const auto& counts = config_.counts();
  if (from != UndecidedStateDynamics::kUndecided && counts[from] == 0) {
    --surviving_opinions_;
  }
  if (to != UndecidedStateDynamics::kUndecided && counts[to] == 1) {
    ++surviving_opinions_;
  }
}

inline bool Simulator::interact(State a, State b) {
  constexpr State kUndecided = UndecidedStateDynamics::kUndecided;
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

bool Simulator::step() {
  if (sampler_stale_) [[unlikely]] {
    sampler_ = PairSampler(config_);  // a batch moved the counts
    sampler_stale_ = false;
  }
  const auto [a, b] = sampler_.sample(rng_);
  ++interactions_;
  return interact(a, b);
}

bool Simulator::batch_pays() const noexcept {
  // E[ℓ]² = πn/8 against (kStepsPerBatchState · (q + 1))².
  constexpr double kPiOver8 = 0.39269908169872414;
  const double states = kStepsPerBatchState * static_cast<double>(surviving_opinions_ + 1);
  return kPiOver8 * static_cast<double>(config_.population()) >= states * states;
}

RunOutcome Simulator::run_until_stable(Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  while (interactions_ < max_interactions && !is_stable()) {
    if (batch_pays()) {
      batch(max_interactions);
    } else {
      step();
    }
    observe();
  }
  RunOutcome out;
  out.stabilized = is_stable();
  out.interactions = interactions_;
  out.consensus = consensus_output();
  return out;
}

namespace {

/// The state of a uniformly random one of the agents counted by
/// `composition` (summing to `total` > 0).
State draw_state(Xoshiro256pp& rng, const std::vector<Count>& composition,
                 Count total) {
  auto target = static_cast<Count>(rng.bounded(static_cast<std::uint64_t>(total)));
  State s = 0;
  while (target >= composition[s]) target -= composition[s++];
  return s;
}

}  // namespace

void Simulator::batch(Interactions max_interactions) {
  constexpr State kUndecided = UndecidedStateDynamics::kUndecided;
  if (interactions_ >= max_interactions || is_stable()) return;
  const std::vector<Count>& counts = config_.counts();
  const std::size_t states = counts.size();
  const Count n = config_.population();
  // The colliding interaction ends the run unless the budget or the end of
  // the current unit of parallel time (a multiple of n interactions) does
  // first. Runs never straddle a unit, so a run cut into calls at whole
  // units draws exactly as one call does.
  const Interactions room =
      std::min(max_interactions - interactions_, n - interactions_ % n);
  Interactions run = collision_free_run_length(rng_, n);
  const bool collides = run < room;
  if (!collides) run = room;

  // The run's 2·run agents fill its initiator and responder slots as a
  // draw without replacement. Its ⊥ initiators, its ⊥ responders, and the
  // pairs where both are ⊥ (a uniform overlap of the two slot sets):
  const Count undecided = counts[kUndecided];
  const Count undecided_init = hypergeometric(rng_, n, undecided, run);
  const Count undecided_resp =
      hypergeometric(rng_, n - run, undecided - undecided_init, run);
  const Count undecided_pairs =
      hypergeometric(rng_, run, undecided_resp, undecided_init);
  // The other slots hold decided agents: one in each ⊥-decided pair (an
  // adoption) and two in each decided×decided pair. Which ones, by
  // opinion: a uniform subset of the decided agents, drawn opinion by
  // opinion. Which of those are partnered with ⊥ (A_i) and how many equal
  // pairs (D_i) the decided×decided ones form comes down the split tree.
  const Count adoptions = undecided_init + undecided_resp - 2 * undecided_pairs;
  const Count decided_pairs = run - undecided_init - undecided_resp + undecided_pairs;
  touched_.assign(states, 0);
  adopters_.assign(states, 0);
  same_.assign(states, 0);
  branch_.clear();
  prefix_.assign(1, 0);
  Count pool = n - undecided;
  Count sample = adoptions + 2 * decided_pairs;
  for (State i = 1; i < states && sample > 0; ++i) {
    touched_[i] = hypergeometric(rng_, pool, counts[i], sample);
    pool -= counts[i];
    sample -= touched_[i];
    if (touched_[i] == 0) continue;
    branch_.push_back(i);
    prefix_.push_back(prefix_.back() + touched_[i]);
  }
  if (!branch_.empty()) split_pairs(0, branch_.size(), adoptions, decided_pairs);

  // A_i agents move ⊥ → i and the L_i = W_i − A_i − 2·D_i clash endpoints
  // move i → ⊥; nothing else changes a state. untouched_ keeps the agents
  // the run did not meet, and touched_ becomes the met ones after the run.
  touched_[kUndecided] = undecided_init + undecided_resp;
  next_.assign(counts.begin(), counts.end());
  Interactions active = adoptions + decided_pairs;
  for (State i = 1; i < states; ++i) {
    const Count clashed = touched_[i] - adopters_[i] - 2 * same_[i];
    next_[i] += adopters_[i] - clashed;
    next_[kUndecided] += clashed - adopters_[i];
    active -= same_[i];
  }
  untouched_.resize(states);
  for (std::size_t s = 0; s < states; ++s) {
    untouched_[s] = counts[s] - touched_[s];
    touched_[s] = next_[s] - untouched_[s];
  }
  config_.assign_counts(next_);
  surviving_opinions_ = surviving_opinions(config_);
  sampler_stale_ = true;
  if (is_stable()) {
    // Stable is absorbing: the run's last non-null interaction stabilized it.
    interactions_ += uniform_subset_max(rng_, run, active);
    return;
  }
  interactions_ += run;
  if (!collides) return;

  // The interaction that ends the run: an ordered pair of distinct agents
  // with at least one of the T = 2·run touched ones. (touched, untouched),
  // (untouched, touched) and (touched, touched) come in proportion
  // T·U : U·T : T·(T − 1), U = n − T; each agent's state is uniform over
  // its group's composition after the run.
  const Count touched = 2 * run;
  const Count untouched = n - touched;
  const auto kind = static_cast<Count>(
      rng_.bounded(static_cast<std::uint64_t>(touched - 1 + 2 * untouched)));
  State a = 0;
  State b = 0;
  if (kind < touched - 1) {
    a = draw_state(rng_, touched_, touched);
    --touched_[a];
    b = draw_state(rng_, touched_, touched - 1);
  } else if (kind < touched - 1 + untouched) {
    a = draw_state(rng_, touched_, touched);
    b = draw_state(rng_, untouched_, untouched);
  } else {
    a = draw_state(rng_, untouched_, untouched);
    b = draw_state(rng_, touched_, touched);
  }
  ++interactions_;
  interact(a, b);
}

void Simulator::split_pairs(std::size_t lo, std::size_t hi, Count adopters,
                            Count pairs) {
  if (adopters == 0 && pairs == 0) return;
  if (hi - lo == 1) {
    adopters_[branch_[lo]] = adopters;
    same_[branch_[lo]] = pairs;
    return;
  }
  // Split the node's adopters and its within-node pairs' agents by child,
  // then the pairs themselves: a uniform half of their agents are the
  // initiators, matched uniformly to the other half.
  const std::size_t mid = lo + (hi - lo) / 2;
  const Count agents = prefix_[hi] - prefix_[lo];
  const Count agents_left = prefix_[mid] - prefix_[lo];
  const Count adopters_left = hypergeometric(rng_, agents, agents_left, adopters);
  const Count paired_left = hypergeometric(rng_, agents - adopters,
                                           agents_left - adopters_left, 2 * pairs);
  const Count init_left = hypergeometric(rng_, 2 * pairs, paired_left, pairs);
  const Count left_left = hypergeometric(rng_, pairs, paired_left - init_left, init_left);
  split_pairs(lo, mid, adopters_left, left_left);
  split_pairs(mid, hi, adopters - adopters_left, pairs - paired_left + left_left);
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
  return usd_consensus(config_, surviving_opinions_);
}

EngineCheckpoint Simulator::checkpoint_state() const {
  EngineCheckpoint cp;
  cp.counts = config_.counts();
  cp.rng_state = rng_.state();
  cp.interactions = interactions_;
  return cp;
}

}  // namespace ppsim
