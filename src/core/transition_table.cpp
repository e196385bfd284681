#include "ppsim/core/transition_table.hpp"

#include "ppsim/util/check.hpp"

namespace ppsim {

TransitionTable::TransitionTable(const Protocol& protocol)
    : num_states_(protocol.num_states()) {
  PPSIM_CHECK(num_states_ > 0, "protocol must have at least one state");
  PPSIM_CHECK(num_states_ <= 1u << 14,
              "state space too large for a dense table (at most 2^14 states)");
  table_.resize(num_states_ * num_states_);
  null_.resize(num_states_ * num_states_);
  for (State a = 0; a < num_states_; ++a) {
    for (State b = 0; b < num_states_; ++b) {
      const Transition t = protocol.apply(a, b);
      PPSIM_CHECK(t.initiator < num_states_ && t.responder < num_states_,
                  "transition function returned an out-of-range state");
      table_[index(a, b)] = t;
      null_[index(a, b)] = (t.initiator == a && t.responder == b) ? 1 : 0;
    }
  }
}

bool TransitionTable::is_stable(const Configuration& config) const {
  PPSIM_CHECK(config.num_states() == num_states_, "configuration/table state mismatch");
  const auto& counts = config.counts();
  for (State a = 0; a < num_states_; ++a) {
    if (counts[a] == 0) continue;
    for (State b = 0; b < num_states_; ++b) {
      if (counts[b] == 0) continue;
      if (a == b && counts[a] < 2) continue;  // needs two distinct agents
      if (!is_null(a, b)) return false;
    }
  }
  return true;
}

}  // namespace ppsim
