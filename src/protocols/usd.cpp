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

Count max_opinion_count(const Configuration& c) {
  const auto& counts = c.counts();
  PPSIM_CHECK(counts.size() >= 2, "USD layout needs at least one opinion");
  return *std::max_element(counts.begin() + 1, counts.end());
}

Count delta_max(const Configuration& c) {
  const auto& counts = c.counts();
  PPSIM_CHECK(counts.size() >= 2, "USD layout needs at least one opinion");
  const auto [lo, hi] = std::minmax_element(counts.begin() + 1, counts.end());
  return *hi - *lo;
}

std::size_t surviving_opinions(const Configuration& c) {
  const auto& counts = c.counts();
  return static_cast<std::size_t>(
      std::count_if(counts.begin() + 1, counts.end(), [](Count x) { return x > 0; }));
}

}  // namespace ppsim
