// Unconditional Undecided State Dynamics (USD) for k opinions — the protocol
// whose stabilization time the paper lower-bounds.
//
// State space Σ = {⊥, 1, ..., k} (k+1 states; we index opinions 0-based in
// code and reserve state 0 for ⊥). Transition function (Section 1.1):
//     f(s1, s2) = (⊥, ⊥)   if s1 ≠ s2 and both are opinions,
//     f(s, ⊥)   = (s, s)   for any opinion s (and symmetrically),
//     f          = identity otherwise.
//
// UndecidedStateDynamics is the Protocol that both engines run: Simulator
// applies the rules above inline for exact runs, and CollapsedSimulator
// compiles them into its round law at paper scale. The free
// functions below read the paper's observables u(t), x_i(t), Δmax(t) and the
// surviving-opinion count off any Configuration in its ⊥-first layout.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/protocol.hpp"
#include "ppsim/core/types.hpp"

namespace ppsim {

/// Generic-protocol formulation of k-opinion USD.
class UndecidedStateDynamics final : public Protocol {
 public:
  static constexpr State kUndecided = 0;

  explicit UndecidedStateDynamics(std::size_t k);

  /// State encoding an opinion (opinions are 0-based; state = opinion + 1).
  static State opinion_state(Opinion i) noexcept { return static_cast<State>(i + 1); }

  /// Configuration over the k+1 USD states (k = opinion_counts.size()):
  /// opinion_counts[i] agents on opinion i, `undecided` agents in ⊥. This is
  /// the one place that knows the ⊥-first state layout — use it instead of
  /// hand-prepending a zero to the counts.
  static Configuration initial_configuration(const std::vector<Count>& opinion_counts,
                                             Count undecided = 0);

  std::size_t num_opinions() const noexcept { return k_; }
  std::size_t num_states() const override { return k_ + 1; }
  Transition apply(State initiator, State responder) const override;
  std::optional<Opinion> output(State s) const override;
  std::string name() const override;
  std::string state_name(State s) const override;

 private:
  std::size_t k_;
};

// Observables over a USD-layout Configuration (state 0 = ⊥, state i+1 =
// opinion i), in the paper's notation. Each is O(1) or O(k).

/// u(t): agents in ⊥.
inline Count undecided_count(const Configuration& c) {
  return c.count(UndecidedStateDynamics::kUndecided);
}

/// x_{i+1}(t) (opinions are 0-based). Throws CheckFailure if out of range.
inline Count opinion_count(const Configuration& c, Opinion i) {
  return c.count(UndecidedStateDynamics::opinion_state(i));
}

/// max_i x_i(t).
Count max_opinion_count(const Configuration& c);

/// Δmax(t) = max_{i,j} (x_i(t) - x_j(t)). The paper's Δ ranges over all k
/// opinions, extinct ones included, so this is max count - min count.
Count delta_max(const Configuration& c);

/// Number of opinions with a nonzero count.
std::size_t surviving_opinions(const Configuration& c);

}  // namespace ppsim
