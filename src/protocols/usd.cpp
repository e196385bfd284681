#include "ppsim/protocols/usd.hpp"

#include <algorithm>

#include "ppsim/util/check.hpp"

namespace ppsim {

UndecidedStateDynamics::UndecidedStateDynamics(std::size_t k) : k_(k) {
  PPSIM_CHECK(k >= 1, "USD needs at least one opinion");
}

Transition UndecidedStateDynamics::apply(State initiator, State responder) const {
  PPSIM_CHECK(initiator <= k_ && responder <= k_, "state out of range");
  const bool a_decided = initiator != kUndecided;
  const bool b_decided = responder != kUndecided;
  if (a_decided && b_decided && initiator != responder) {
    return {kUndecided, kUndecided};  // clash: both become undecided
  }
  if (a_decided && !b_decided) return {initiator, initiator};  // ⊥ adopts
  if (!a_decided && b_decided) return {responder, responder};
  return {initiator, responder};  // same opinion, or both undecided
}

std::optional<Opinion> UndecidedStateDynamics::output(State s) const {
  PPSIM_CHECK(s <= k_, "state out of range");
  if (s == kUndecided) return std::nullopt;
  return static_cast<Opinion>(s - 1);
}

std::string UndecidedStateDynamics::name() const {
  return "usd-k" + std::to_string(k_);
}

std::string UndecidedStateDynamics::state_name(State s) const {
  PPSIM_CHECK(s <= k_, "state out of range");
  return s == kUndecided ? "⊥" : "op" + std::to_string(s - 1);
}

Configuration UndecidedStateDynamics::initial_configuration(
    const std::vector<Count>& opinion_counts, Count undecided) {
  PPSIM_CHECK(undecided >= 0, "undecided count must be non-negative");
  std::vector<Count> counts;
  counts.reserve(opinion_counts.size() + 1);
  counts.push_back(undecided);
  counts.insert(counts.end(), opinion_counts.begin(), opinion_counts.end());
  return Configuration(std::move(counts));
}

UsdEngine::UsdEngine(std::vector<Count> opinion_counts, Count undecided,
                     std::uint64_t seed)
    : k_(opinion_counts.size()), rng_(seed) {
  PPSIM_CHECK(k_ >= 1, "USD needs at least one opinion");
  PPSIM_CHECK(undecided >= 0, "undecided count must be non-negative");
  counts_.reserve(k_ + 1);
  counts_.push_back(undecided);
  n_ = undecided;
  for (const Count c : opinion_counts) {
    PPSIM_CHECK(c >= 0, "opinion counts must be non-negative");
    counts_.push_back(c);
    n_ += c;
    if (c > 0) ++nonzero_opinions_;
  }
  PPSIM_CHECK(n_ >= 2, "population must have at least two agents");
  weights_ = FenwickTree(counts_);
}

Count UsdEngine::opinion_count(Opinion i) const {
  PPSIM_CHECK(i < k_, "opinion out of range");
  return counts_[i + 1];
}

Count UsdEngine::max_opinion_count() const noexcept {
  return *std::max_element(counts_.begin() + 1, counts_.end());
}

Count UsdEngine::min_opinion_count() const noexcept {
  return *std::min_element(counts_.begin() + 1, counts_.end());
}

std::optional<Opinion> UsdEngine::winner() const {
  if (!stabilized() || counts_[0] == n_) return std::nullopt;
  for (std::size_t i = 1; i < counts_.size(); ++i) {
    if (counts_[i] > 0) return static_cast<Opinion>(i - 1);
  }
  return std::nullopt;  // unreachable: stabilized on an opinion implies one survivor
}

bool UsdEngine::step() {
  // Draw an ordered pair of distinct agents: initiator uniform among n, then
  // responder uniform among the remaining n-1 (the initiator's agent is
  // removed from the urn for the second draw).
  const auto a = static_cast<State>(
      weights_.find(static_cast<std::int64_t>(rng_.bounded(static_cast<std::uint64_t>(n_)))));
  weights_.add(a, -1);
  const auto b = static_cast<State>(weights_.find(
      static_cast<std::int64_t>(rng_.bounded(static_cast<std::uint64_t>(n_ - 1)))));
  weights_.add(a, +1);
  ++interactions_;
  if (a == b) return false;  // same opinion, or both undecided: identity

  if (a == 0 || b == 0) {
    // Decided (opinion state `d`) meets undecided: ⊥ adopts the opinion.
    const State d = a == 0 ? b : a;
    --counts_[0];
    ++counts_[d];
    weights_.add(0, -1);
    weights_.add(d, +1);
    // counts_[d] was >= 1 before (an agent occupies it), so the set of
    // surviving opinions is unchanged.
    return true;
  }

  // Two distinct opinions clash: both agents become undecided.
  --counts_[a];
  --counts_[b];
  counts_[0] += 2;
  weights_.add(a, -1);
  weights_.add(b, -1);
  weights_.add(0, +2);
  if (counts_[a] == 0) --nonzero_opinions_;
  if (counts_[b] == 0) --nonzero_opinions_;
  return true;
}

void UsdEngine::corrupt_agent(State from, State to) {
  PPSIM_CHECK(from <= k_ && to <= k_, "state out of range");
  PPSIM_CHECK(counts_[from] > 0, "no agent occupies the source state");
  if (from == to) return;
  --counts_[from];
  ++counts_[to];
  weights_.add(from, -1);
  weights_.add(to, +1);
  if (from != 0 && counts_[from] == 0) --nonzero_opinions_;
  if (to != 0 && counts_[to] == 1) ++nonzero_opinions_;
}

bool UsdEngine::run_until_stable(Interactions max_interactions) {
  PPSIM_CHECK(max_interactions >= 0, "interaction budget must be non-negative");
  while (interactions_ < max_interactions && !stabilized()) step();
  return stabilized();
}

}  // namespace ppsim
