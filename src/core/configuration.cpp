#include "ppsim/core/configuration.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "ppsim/util/check.hpp"

namespace ppsim {

Configuration::Configuration(std::vector<Count> counts) : counts_(std::move(counts)) {
  PPSIM_CHECK(!counts_.empty(), "configuration needs at least one state");
  for (const Count c : counts_) {
    PPSIM_CHECK(c >= 0, "per-state counts must be non-negative");
  }
  population_ = std::accumulate(counts_.begin(), counts_.end(), Count{0});
}

Configuration Configuration::monochromatic(std::size_t num_states, State s, Count n) {
  PPSIM_CHECK(s < num_states, "state out of range");
  PPSIM_CHECK(n >= 0, "population must be non-negative");
  std::vector<Count> counts(num_states, 0);
  counts[s] = n;
  return Configuration(std::move(counts));
}

Count Configuration::count(State s) const {
  PPSIM_CHECK(s < counts_.size(), "state out of range");
  return counts_[s];
}

void Configuration::move_agent(State from, State to) {
  PPSIM_CHECK(from < counts_.size() && to < counts_.size(), "state out of range");
  if (from == to) return;
  PPSIM_CHECK(counts_[from] > 0, "no agent in source state");
  --counts_[from];
  ++counts_[to];
}

void Configuration::assign_counts(std::vector<Count> counts) {
  PPSIM_CHECK(counts.size() == counts_.size(),
              "assigned counts must cover the same state space");
  Count total = 0;
  for (const Count c : counts) {
    PPSIM_CHECK(c >= 0, "per-state counts must be non-negative");
    // Bounding each partial sum by the population also rules out overflow.
    PPSIM_CHECK(c <= population_ - total,
                "assigned counts must conserve the population");
    total += c;
  }
  PPSIM_CHECK(total == population_, "assigned counts must conserve the population");
  counts_ = std::move(counts);
}

bool Configuration::is_monochromatic() const noexcept {
  for (const Count c : counts_) {
    if (c == population_) return true;
    if (c != 0) return false;
  }
  // All-zero counts (empty population) counts as monochromatic.
  return true;
}

State Configuration::argmax() const noexcept {
  const auto it = std::max_element(counts_.begin(), counts_.end());
  return static_cast<State>(std::distance(counts_.begin(), it));
}

std::size_t Configuration::support_size() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(counts_.begin(), counts_.end(), [](Count c) { return c > 0; }));
}

std::string Configuration::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (i > 0) os << ", ";
    os << counts_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace ppsim
