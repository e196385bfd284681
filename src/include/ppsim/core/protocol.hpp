// The abstract population protocol: a deterministic transition function
// f : Σ² → Σ² over ordered (initiator, responder) pairs, plus an output map
// γ : Σ → Γ ∪ {⊥}. This matches the formalisation in Section 1.1 of the
// paper (El-Hayek, Elsässer, Schmid, PODC'25).
//
// Implementations must be stateless value-like objects: all dynamics live in
// the Configuration, never in the protocol.
#pragma once

#include <optional>
#include <string>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/types.hpp"

namespace ppsim {

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Cardinality of the state space Σ. May grow with n (e.g. USD uses k+1).
  virtual std::size_t num_states() const = 0;

  /// The deterministic transition function applied to an ordered pair.
  /// Symmetric protocols simply ignore the ordering.
  virtual Transition apply(State initiator, State responder) const = 0;

  /// Output map γ. nullopt means the state has no committed output (e.g. the
  /// undecided state ⊥ in USD).
  virtual std::optional<Opinion> output(State s) const = 0;

  /// Protocol name for logs, tables and test diagnostics.
  virtual std::string name() const = 0;

  /// Debug name of a state; default "s<i>".
  virtual std::string state_name(State s) const { return "s" + std::to_string(s); }

 protected:
  Protocol() = default;
  Protocol(const Protocol&) = default;
  Protocol& operator=(const Protocol&) = default;
};

/// If every agent present in `config` outputs the same committed opinion
/// under γ, returns it; nullopt if any agent is uncommitted or outputs
/// disagree. The engines use USD's O(1) rule (usd_consensus); this generic
/// scan is the reference simulator_test checks it against.
inline std::optional<Opinion> consensus_output(const Protocol& protocol,
                                               const Configuration& config) {
  std::optional<Opinion> agreed;
  const auto& counts = config.counts();
  for (State s = 0; s < config.num_states(); ++s) {
    if (counts[s] == 0) continue;
    const std::optional<Opinion> o = protocol.output(s);
    if (!o.has_value()) return std::nullopt;  // some agent is uncommitted
    if (agreed.has_value() && *agreed != *o) return std::nullopt;
    agreed = o;
  }
  return agreed;
}

}  // namespace ppsim
