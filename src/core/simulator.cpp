#include "ppsim/core/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "ppsim/util/check.hpp"
#include "ppsim/util/random_variates.hpp"

namespace ppsim {

Simulator::Simulator(const UndecidedStateDynamics& usd, Configuration initial,
                     std::uint64_t seed)
    : config_(std::move(initial)),
      sampler_(config_),
      rng_(seed),
      run_law_(config_.population()),
      root_n_(std::sqrt(static_cast<double>(config_.population()))) {
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
  return static_cast<double>(config_.population()) >=
         kAgentsPerBatchState * static_cast<double>(surviving_opinions_ + 1);
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

constexpr State kUndecided = UndecidedStateDynamics::kUndecided;

/// The state of a uniformly random one of the agents counted by
/// `composition` (summing to `total` > 0).
State draw_state(Xoshiro256pp& rng, const std::vector<Count>& composition,
                 Count total) {
  auto target = static_cast<Count>(rng.bounded(static_cast<std::uint64_t>(total)));
  State s = 0;
  while (target >= composition[s]) target -= composition[s++];
  return s;
}

/// The state both agents of a USD interaction end in: each rule leaves the
/// two in one state (a clash sends both to ⊥, an adoption and a null pair
/// leave both on one state). Symmetric in (a, b).
State meet(State a, State b) noexcept {
  if (a == b || b == kUndecided) return a;
  if (a == kUndecided) return b;
  return kUndecided;
}

}  // namespace

void Simulator::batch(Interactions max_interactions) {
  if (interactions_ >= max_interactions || is_stable()) return;
  const std::vector<Count>& counts = config_.counts();
  const Count n = config_.population();
  // The batch ends by the budget and by the end of the current unit of
  // parallel time (a multiple of n interactions) at the latest. Batches
  // never straddle a unit, so a run cut into calls at whole units draws
  // exactly as one call does.
  const Interactions room =
      std::min(max_interactions - interactions_, n - interactions_ % n);
  // Past a collision the batch runs only where it cannot turn stable.
  // Stability needs u = 0 or d = 0, and an interaction lowers u by at most
  // 1 and d by at most 2, so `safe` interactions keep u, d ≥ 1.
  const Count undecided = counts[kUndecided];
  const auto longest = static_cast<Interactions>(
      root_n_ * std::min(kBatchLengthCapPerRootN,
                         kBatchLengthPerRootQn *
                             std::sqrt(static_cast<double>(surviving_opinions_ + 1))));
  const Interactions safe =
      std::min({room, longest, undecided - 1, (n - undecided - 1) / 2});

  pool_.assign(counts.begin(), counts.end());
  pool_size_ = n;
  known_.assign(counts.size(), 0);
  known_size_ = 0;
  deferred_ = 0;
  Interactions made = 0;
  Interactions stop = room;
  bool collision_ends = false;  // the collision after `made` ends the batch
  for (;;) {
    const Interactions run = run_law_.draw(rng_, 2 * deferred_ + known_size_);
    if (run >= stop - made) {
      deferred_ += stop - made;
      made = stop;
      break;
    }
    deferred_ += run;
    made += run;
    if (made >= safe) {
      // Only the first run gets here (later ones stop at `safe`). The
      // batch ends at this collision, and the run is resolved before it,
      // so that a run that turns the configuration stable stops exactly.
      collision_ends = true;
      break;
    }
    collide();
    ++made;
    stop = safe;
    if (made == stop) break;
  }

  const Interactions active = resolve_deferred();
  assign_batch_counts();
  if (is_stable()) {
    // Only a batch with no collision inside it can end stable, so every
    // interaction was a deferred one. Those are exchangeable and stable is
    // absorbing: the last non-null one stabilized the configuration.
    PPSIM_ASSERT(active <= made);
    interactions_ += uniform_subset_max(rng_, made, active);
    return;
  }
  interactions_ += made;
  if (!collision_ends) return;
  collide();
  ++interactions_;
  assign_batch_counts();
}

void Simulator::assign_batch_counts() {
  next_.resize(pool_.size());
  for (std::size_t s = 0; s < pool_.size(); ++s) next_[s] = pool_[s] + known_[s];
  config_.assign_counts(next_);
  surviving_opinions_ = surviving_opinions(config_);
  sampler_stale_ = true;
}

State Simulator::take_pooled() {
  const State s = draw_state(rng_, pool_, pool_size_);
  --pool_[s];
  --pool_size_;
  return s;
}

State Simulator::take_touched() {
  const auto pick = static_cast<Count>(
      rng_.bounded(static_cast<std::uint64_t>(2 * deferred_ + known_size_)));
  if (pick < 2 * deferred_) {
    // A deferred agent: its pair meets now, on two agents from the pool.
    // Both end in one state; its partner becomes a known agent.
    const State a = take_pooled();
    const State after = meet(a, take_pooled());
    --deferred_;
    ++known_[after];
    ++known_size_;
    return after;
  }
  const State s = draw_state(rng_, known_, known_size_);
  --known_[s];
  --known_size_;
  return s;
}

void Simulator::collide() {
  // An ordered pair of distinct agents with at least one of the T touched
  // ones: (touched, untouched), (untouched, touched) and (touched, touched)
  // in proportion T·U : U·T : T·(T − 1), U = n − T the untouched agents.
  // USD's rule is symmetric, so the first two are one case. A touched
  // agent is uniform over the touched ones: deferred with probability
  // 2D/T. An untouched one is a uniform draw from the pool, with which the
  // deferred agents are exchangeable.
  const Count touched = 2 * deferred_ + known_size_;
  const Count untouched = pool_size_ - 2 * deferred_;
  const auto kind = static_cast<Count>(
      rng_.bounded(static_cast<std::uint64_t>(touched - 1 + 2 * untouched)));
  const State a = take_touched();
  const State b = kind < touched - 1 ? take_touched() : take_pooled();
  known_[meet(a, b)] += 2;
  known_size_ += 2;
}

Interactions Simulator::resolve_deferred() {
  // The D deferred pairs' 2D agents are a uniform subset of the pool, so
  // they are a collision-free run over it: its ⊥ initiators, its ⊥
  // responders, and the pairs where both are ⊥ (a uniform overlap of the
  // two slot sets).
  const Count pairs = deferred_;
  const Count undecided = pool_[kUndecided];
  const Count undecided_init = hypergeometric(rng_, pool_size_, undecided, pairs);
  const Count undecided_resp =
      hypergeometric(rng_, pool_size_ - pairs, undecided - undecided_init, pairs);
  const Count undecided_pairs =
      hypergeometric(rng_, pairs, undecided_resp, undecided_init);
  // The other slots hold decided agents: one in each ⊥-decided pair (an
  // adoption) and two in each decided×decided pair. Which ones, by
  // opinion: a uniform subset of the pool's decided agents, drawn opinion
  // by opinion. Which of those are partnered with ⊥ (A_i) and how many
  // equal pairs (D_i) the decided×decided ones form comes down the split
  // tree.
  const Count adoptions = undecided_init + undecided_resp - 2 * undecided_pairs;
  const Count decided_pairs = pairs - undecided_init - undecided_resp + undecided_pairs;
  const std::size_t states = pool_.size();
  touched_.assign(states, 0);
  adopters_.assign(states, 0);
  same_.assign(states, 0);
  branch_.clear();
  prefix_.assign(1, 0);
  Count rest = pool_size_ - undecided;
  Count sample = adoptions + 2 * decided_pairs;
  for (State i = 1; i < states && sample > 0; ++i) {
    touched_[i] = hypergeometric(rng_, rest, pool_[i], sample);
    rest -= pool_[i];
    sample -= touched_[i];
    if (touched_[i] == 0) continue;
    branch_.push_back(i);
    prefix_.push_back(prefix_.back() + touched_[i]);
  }
  if (!branch_.empty()) split_pairs(0, branch_.size(), adoptions, decided_pairs);

  // The pairs' agents leave the pool and become known: the A_i adopters'
  // ⊥ partners and the 2·D_i equal ones end on i, and the
  // L_i = W_i − A_i − 2·D_i clash endpoints and the ⊥⊥ pairs on ⊥.
  pool_[kUndecided] -= undecided_init + undecided_resp;
  known_[kUndecided] += 2 * undecided_pairs;
  Interactions active = pairs - undecided_pairs;
  for (const State i : branch_) {
    pool_[i] -= touched_[i];
    known_[i] += 2 * (adopters_[i] + same_[i]);
    known_[kUndecided] += touched_[i] - adopters_[i] - 2 * same_[i];
    active -= same_[i];
  }
  pool_size_ -= 2 * pairs;
  known_size_ += 2 * pairs;
  deferred_ = 0;
  return active;
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
